package experiments

// The measurement kernels every extension experiment shares. The
// ping-pong is mpptest.PingPong; this file holds the timed-collective
// loop, the four collective operations it is given, and the two session
// shapes the experiments run them on. What stays with each experiment is
// its topology, its sizes and what it reads off the session afterwards.
//
// Two measurements are not "iters × op" on rank 0's clock: adaptive.go's
// loaded transfer times one send from its start on rank 0 to its completion
// on rank 8, across a re-plan, and scale.go sweeps both collectives and every
// size inside one 1024-rank session — a fresh session per point would cost a
// Build of the machine each — and reports what the machine took (completion).

import (
	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/vtime"
)

// collOp is one collective call on fresh buffers; size is the per-rank
// payload in bytes (for alltoall, the block each pair exchanges).
type collOp func(comm *mpi.Comm, size int) error

func bcast(comm *mpi.Comm, size int) error {
	return comm.Bcast(make([]byte, size), size, mpi.Byte, 0)
}

func allreduce(comm *mpi.Comm, size int) error {
	return comm.Allreduce(make([]byte, size), make([]byte, size), size, mpi.Byte, mpi.OpMax)
}

func allgather(comm *mpi.Comm, size int) error {
	return comm.Allgather(make([]byte, size), make([]byte, size*comm.Size()), size, mpi.Byte)
}

func alltoall(comm *mpi.Comm, size int) error {
	n := size * comm.Size()
	return comm.Alltoall(make([]byte, n), make([]byte, n), size, mpi.Byte)
}

// forced builds a session whose every rank selects its collective
// algorithms by mode instead of by topology.
func forced(topo cluster.Topology, mode mpi.CollMode) (*cluster.Session, error) {
	sess, err := cluster.Build(topo)
	if err != nil {
		return nil, err
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	return sess, nil
}

// timed runs the session as iters repetitions of op on every rank and
// returns rank 0's time per operation. With a sample, barriers bracket the
// loop and rank 0 calls sample as it leaves each: two calls, which open
// and close the window a counter is read over. The window is wider than
// the timed loop by the closing barrier, so a nil op — the empty window —
// measures what the barriers themselves add to the counter.
func timed(sess *cluster.Session, iters, size int, op collOp, sample func()) (vtime.Duration, error) {
	var perOp vtime.Duration
	edge := func(rank int, comm *mpi.Comm) error {
		if sample == nil {
			return nil
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			sample()
		}
		return nil
	}
	err := sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := edge(rank, comm); err != nil {
			return err
		}
		start := sess.S.Now()
		for i := 0; op != nil && i < iters; i++ {
			if err := op(comm, size); err != nil {
				return err
			}
		}
		if rank == 0 {
			perOp = sess.S.Now().Sub(start) / vtime.Duration(iters)
		}
		return edge(rank, comm)
	})
	return perOp, err
}

// completion runs the session as one call of each op in turn, each from a
// synchronised start — a barrier, then a gate every rank leaves at the instant
// the last one reaches it — and returns per op what the machine took, the time
// from that instant to the last rank's return, beside rank 0's own.
func completion(sess *cluster.Session, ops ...func(comm *mpi.Comm) error) (last, rank0 []vtime.Duration, err error) {
	last, rank0 = make([]vtime.Duration, len(ops)), make([]vtime.Duration, len(ops))
	gate, waiting := vtime.NewEvent(sess.S, "start"), 0
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		for i, op := range ops {
			if err := comm.Barrier(); err != nil {
				return err
			}
			if waiting++; waiting < len(sess.Ranks) {
				gate.Wait()
			} else {
				open := gate
				gate, waiting = vtime.NewEvent(sess.S, "start"), 0
				open.Fire()
			}
			start := sess.S.Now()
			if err := op(comm); err != nil {
				return err
			}
			took := sess.S.Now().Sub(start)
			last[i] = max(last[i], took)
			if rank == 0 {
				rank0[i] = took
			}
		}
		return nil
	})
	return last, rank0, err
}

// pingPong runs the session as one two-round-trip ping-pong between ranks
// a and b and returns the one-way time: the extension series' policy, a
// fresh session per size and no barrier.
func pingPong(sess *cluster.Session, a, b, size int) (vtime.Duration, error) {
	var oneWay vtime.Duration
	err := sess.Run(func(rank int, comm *mpi.Comm) error {
		d, err := mpptest.PingPong(sess.S, comm, a, b, size, 2)
		if rank == a {
			oneWay = d
		}
		return err
	})
	return oneWay, err
}
