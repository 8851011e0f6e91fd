package main

import (
	"fmt"

	"mpichmad/internal/cluster"
	"mpichmad/internal/experiments"
	"mpichmad/internal/mpi"
)

// collGrid is a grid of blocking collectives on one session per
// repetition: every (operation × size) batch runs its iterations in a
// closed loop on every rank, and every rank checks what it received.
type collGrid struct {
	topo    func() cluster.Topology
	ranks   int
	batches []collBatch // in visiting order
	pat     *pattern
	latSize int // the size the latency metric is read at
	bwSize  int // the size the bandwidth metric is read at
}

type collBatch struct {
	op    string
	size  int // per-rank payload, bytes
	iters int
	roots []int    // Bcast root of each iteration
	sums  [][]byte // Allreduce: the right answer of each iteration
	fails []string // what some rank saw wrong in each iteration ("" = right)
}

// triangleTopo is the bridged triangle: three 3-rank islands (SCI, SCI,
// Myrinet/BIP) joined pairwise by three TCP bridges, so every island
// fronts two gateways. Ranks a0..c2 = 0..8. Forwarding on a bridged
// topology gives two rails and the default relay window.
func triangleTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "a0", Procs: 1}, {Name: "a1", Procs: 1}, {Name: "a2", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 1}, {Name: "b2", Procs: 1},
			{Name: "c0", Procs: 1}, {Name: "c1", Procs: 1}, {Name: "c2", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1", "a2"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"b0", "b1", "b2"}},
			{Name: "myriC", Protocol: "bip", Nodes: []string{"c0", "c1", "c2"}},
			{Name: "gwAB", Protocol: "tcp", Nodes: []string{"a2", "b1"}},
			{Name: "gwBC", Protocol: "tcp", Nodes: []string{"b2", "c1"}},
			{Name: "gwCA", Protocol: "tcp", Nodes: []string{"a1", "c0"}},
		},
		Forwarding: true,
	}
}

func prepareTriangle(seed int64, smoke bool) runner {
	sizes := []int{64, 4 << 10, 64 << 10, 1 << 20}
	iters := map[int]int{64: 20, 4 << 10: 10, 64 << 10: 5, 1 << 20: 3}
	if smoke {
		sizes = []int{64, 64 << 10}
		iters = map[int]int{64: 2, 64 << 10: 1}
	}
	g := &collGrid{
		topo: func() cluster.Topology {
			topo := triangleTopo()
			// No TuneCache: every repetition pays the MPI_Init sweep, as
			// every session of the repository's experiments does today.
			topo.Autotune = !smoke
			return topo
		},
		ranks:   9,
		latSize: sizes[0],
		bwSize:  sizes[len(sizes)-1],
	}
	g.fill(newPRNG(seed, "coll_triangle"), []string{"Bcast", "Allreduce", "Allgather", "Alltoall"},
		sizes, func(size int) int { return iters[size] })
	return g
}

func prepareScale(seed int64, smoke bool) runner {
	clusters, per := 64, 16
	if smoke {
		clusters, per = 4, 4
	}
	sizes := []int{64, 1 << 10, 16 << 10}
	g := &collGrid{
		topo:    func() cluster.Topology { return experiments.ScaleTopo(clusters, per) },
		ranks:   clusters * per,
		latSize: sizes[0],
		bwSize:  sizes[len(sizes)-1],
	}
	// Barrier carries no payload; it is measured once beside each size.
	g.fill(newPRNG(seed, "coll_scale1024"), []string{"Barrier", "Bcast", "Allreduce"},
		sizes, func(int) int { return 1 })
	return g
}

// fill makes the seeded inputs: the payload pattern, the order the
// batches are visited in, the root of every Bcast, and the right answer
// of every Allreduce.
func (g *collGrid) fill(rng *prng, ops []string, sizes []int, iters func(int) int) {
	g.pat = newPattern(rng, sizes[len(sizes)-1], g.ranks)
	var all []collBatch
	for _, op := range ops {
		for _, size := range sizes {
			all = append(all, collBatch{op: op, size: size, iters: iters(size)})
		}
	}
	for _, i := range rng.perm(len(all)) {
		b := all[i]
		b.fails = make([]string, b.iters)
		switch b.op {
		case "Bcast":
			for k := 0; k < b.iters; k++ {
				b.roots = append(b.roots, rng.intn(g.ranks))
			}
		case "Allreduce":
			for k := 0; k < b.iters; k++ {
				b.sums = append(b.sums, g.pat.fsum(k, g.ranks, b.size/8))
			}
		}
		g.batches = append(g.batches, b)
	}
}

func (g *collGrid) autotuned() *cluster.Topology {
	if topo := g.topo(); topo.Autotune {
		return &topo
	}
	return nil
}

// block is the per-destination share of an Allgather/Alltoall payload.
func (g *collGrid) block(size int) int {
	if b := size / g.ranks; b > 0 {
		return b
	}
	return 1
}

func (g *collGrid) repetition(r *rep) error {
	for bi := range g.batches {
		for i := range g.batches[bi].fails {
			g.batches[bi].fails[i] = ""
		}
	}
	err := r.session("grid", g.topo(), func(sess *cluster.Session, rank int, comm *mpi.Comm) error {
		for bi := range g.batches {
			b := &g.batches[bi]
			if err := r.batch(sess, rank, comm, b.op, b.size, b.iters, g.op(r, b, rank, comm)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Ranks leave a collective at different times, so the operations are
	// counted once every rank has checked its buffers.
	for bi := range g.batches {
		for _, why := range g.batches[bi].fails {
			r.op(why)
		}
	}
	return nil
}

// op returns rank's body for one iteration of batch b: issue the
// collective, then compare what arrived with the pattern.
func (g *collGrid) op(r *rep, b *collBatch, rank int, comm *mpi.Comm) func(i int) error {
	n := g.ranks
	fail := func(i int, why string) {
		if why != "" && b.fails[i] == "" {
			b.fails[i] = fmt.Sprintf("%s/%d #%d rank %d: %s", b.op, b.size, i, rank, why)
		}
	}
	switch b.op {
	case "Barrier":
		return func(int) error {
			r.mpiOps++
			return comm.Barrier()
		}
	case "Bcast":
		buf := make([]byte, b.size)
		return func(i int) error {
			r.mpiOps++
			root := b.roots[i]
			want := g.pat.window(i, root, b.size)
			if rank == root {
				copy(buf, want)
			}
			if err := comm.Bcast(buf, b.size, mpi.Byte, root); err != nil {
				return err
			}
			fail(i, r.check("Bcast", buf, want))
			return nil
		}
	case "Allreduce":
		count := b.size / 8
		recv := make([]byte, count*8)
		return func(i int) error {
			r.mpiOps++
			send := g.pat.fwindow(i, rank, count)
			if err := comm.Allreduce(send, recv, count, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			fail(i, r.check("Allreduce", recv, b.sums[i]))
			return nil
		}
	case "Allgather":
		blk := g.block(b.size)
		recv := make([]byte, blk*n)
		return func(i int) error {
			r.mpiOps++
			if err := comm.Allgather(g.pat.window(i, rank, blk), recv, blk, mpi.Byte); err != nil {
				return err
			}
			for src := 0; src < n; src++ {
				fail(i, r.check("Allgather", recv[src*blk:(src+1)*blk], g.pat.window(i, src, blk)))
			}
			return nil
		}
	case "Alltoall":
		blk := g.block(b.size)
		recv := make([]byte, blk*n)
		return func(i int) error {
			r.mpiOps++
			// Rank s sends block d of its window to rank d.
			if err := comm.Alltoall(g.pat.window(i, rank, blk*n), recv, blk, mpi.Byte); err != nil {
				return err
			}
			for src := 0; src < n; src++ {
				want := g.pat.window(i, src, blk*n)[rank*blk : (rank+1)*blk]
				fail(i, r.check("Alltoall", recv[src*blk:(src+1)*blk], want))
			}
			return nil
		}
	}
	panic("bench: unknown collective " + b.op)
}

// headline reads the latency and bandwidth points off the grid: the
// geometric mean over the operations of the per-operation time at the
// smallest size, and of payload over time at the largest.
func (g *collGrid) headline(r *rep) (latUS, bwMBps, opGmeanUS float64) {
	var lats, bws, all []float64
	for _, p := range r.points {
		all = append(all, usOf(p.PerOp))
		if p.Size == g.latSize {
			lats = append(lats, usOf(p.PerOp))
		}
		if p.Size == g.bwSize && p.Series != "Barrier" {
			bws = append(bws, mbpsOf(p.Size, p.PerOp))
		}
	}
	return gmean(lats), gmean(bws), gmean(all)
}
