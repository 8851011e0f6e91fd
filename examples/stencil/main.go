// Stencil: a 1-D heat-diffusion solver with halo exchange — the classic
// workload the paper's clusters ran. The domain is decomposed across an
// SCI island and a Myrinet island joined by Fast-Ethernet; halo exchanges
// inside an island ride the fast network, the one exchange that crosses
// the island boundary rides the backbone, all in one MPI session.
//
// The example verifies the parallel result against a serial solver and
// reports where the virtual time went.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"math"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

const (
	globalCells = 4096
	steps       = 50
	alpha       = 0.25
)

func main() {
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "sci0", Procs: 1}, {Name: "sci1", Procs: 1},
			{Name: "myri0", Procs: 1}, {Name: "myri1", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"sci0", "sci1"}},
			{Name: "myrinet", Protocol: "bip", Nodes: []string{"myri0", "myri1"}},
			{Name: "ethernet", Protocol: "tcp", Nodes: []string{"sci0", "sci1", "myri0", "myri1"}},
		},
	}
	sess, err := cluster.Build(topo)
	if err != nil {
		log.Fatal(err)
	}

	var parallelResult []float64
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		n := comm.Size()
		local := globalCells / n
		// Local domain with one ghost cell on each side.
		u := make([]float64, local+2)
		next := make([]float64, local+2)
		for i := 1; i <= local; i++ {
			u[i] = initial(rank*local + i - 1)
		}

		left, right := rank-1, rank+1
		ghost := make([]byte, 8)
		for step := 0; step < steps; step++ {
			// Halo exchange (boundary ranks keep fixed 0 boundaries).
			if left >= 0 {
				if _, err := comm.Sendrecv(
					mpi.Float64Bytes(u[1:2]), 1, mpi.Float64, left, 0,
					ghost, 1, mpi.Float64, left, 0); err != nil {
					return err
				}
				u[0] = mpi.BytesFloat64(ghost)[0]
			}
			if right < n {
				if _, err := comm.Sendrecv(
					mpi.Float64Bytes(u[local:local+1]), 1, mpi.Float64, right, 0,
					ghost, 1, mpi.Float64, right, 0); err != nil {
					return err
				}
				u[local+1] = mpi.BytesFloat64(ghost)[0]
			}
			for i := 1; i <= local; i++ {
				next[i] = u[i] + alpha*(u[i-1]-2*u[i]+u[i+1])
			}
			u, next = next, u
		}

		// Gather the full field at rank 0 for verification.
		recv := make([]byte, 0)
		if rank == 0 {
			recv = make([]byte, 8*globalCells)
		}
		if err := comm.Gather(mpi.Float64Bytes(u[1:local+1]), recv, local, mpi.Float64, 0); err != nil {
			return err
		}
		if rank == 0 {
			parallelResult = mpi.BytesFloat64(recv)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	serial := serialSolve()
	var maxErr float64
	for i := range serial {
		if d := math.Abs(serial[i] - parallelResult[i]); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("heat equation: %d cells, %d steps, 4 ranks over SCI+Myrinet+Ethernet\n", globalCells, steps)
	fmt.Printf("max |parallel - serial| = %.3e\n", maxErr)
	fmt.Printf("virtual time: %v\n", sess.S.Now())
	for name, net := range sess.Networks {
		fmt.Printf("  %-9s %6d packets %10d bytes\n", name, net.Stats.Packets, net.Stats.Bytes)
	}
	if maxErr > 1e-12 {
		log.Fatal("parallel result diverges from serial solver")
	}
	fmt.Println("verified: parallel result matches the serial solver bit-for-bit tolerance")

	overlapDemo(topo)
}

// overlapDemo shows the schedule-driven nonblocking collectives hiding a
// global residual reduction behind local compute: each iteration starts
// an Iallreduce of a 64 KB residual vector, runs the update (application
// compute as long as the blocking reduction) and only then waits. The
// engine's charges preempt the update, so the reduction advances beneath
// it; the blocking variant pays reduction and update back to back. Times
// are the last rank's. The update is 64 Compute calls, as in X4's overlap
// kernel: the Ethernet poller's idle burns never preempt a Compute, so it
// notices an arrival only when a charge cuts the update or a call ends.
// With the update as one call, 55% of the reduction is hidden.
func overlapDemo(topo cluster.Topology) {
	const (
		resVec = 64 << 10 // residual vector bytes
		iters  = 5
		chunks = 64
	)
	run := func(nonblocking bool, update vtime.Duration) vtime.Duration {
		sess, err := cluster.Build(topo)
		if err != nil {
			log.Fatal(err)
		}
		var elapsed vtime.Duration
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			local := make([]byte, resVec)
			global := make([]byte, resVec)
			proc := sess.Ranks[rank].Proc
			start := sess.S.Now()
			for i := 0; i < iters; i++ {
				if nonblocking {
					req, err := comm.Iallreduce(local, global, resVec, mpi.Byte, mpi.OpMax)
					if err != nil {
						return err
					}
					for k := 0; k < chunks; k++ {
						proc.Compute(update / chunks)
					}
					if err := req.Wait(); err != nil {
						return err
					}
				} else {
					if err := comm.Allreduce(local, global, resVec, mpi.Byte, mpi.OpMax); err != nil {
						return err
					}
					for k := 0; k < chunks; k++ {
						proc.Compute(update / chunks)
					}
				}
			}
			elapsed = max(elapsed, sess.S.Now().Sub(start))
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		return elapsed
	}
	reduction := run(false, 0)
	update := reduction / iters
	blocking := run(false, update)
	overlapped := run(true, update)
	fmt.Printf("\noverlap demo: %d iterations of a 64KB residual Allreduce (%v) and an update as long\n", iters, update)
	fmt.Printf("  blocking Allreduce then update: %v\n", blocking)
	fmt.Printf("  Iallreduce beside the update:   %v (%.0f%% of the reduction hidden)\n",
		overlapped, 100*(1-float64(overlapped-iters*update)/float64(reduction)))
}

func initial(i int) float64 {
	x := float64(i) / globalCells
	return math.Sin(math.Pi*x) + 0.5*math.Sin(3*math.Pi*x)
}

func serialSolve() []float64 {
	u := make([]float64, globalCells+2)
	next := make([]float64, globalCells+2)
	for i := 1; i <= globalCells; i++ {
		u[i] = initial(i - 1)
	}
	for step := 0; step < steps; step++ {
		for i := 1; i <= globalCells; i++ {
			next[i] = u[i] + alpha*(u[i-1]-2*u[i]+u[i+1])
		}
		u, next = next, u
	}
	return u[1 : globalCells+1]
}
