package experiments

// The measurement kernels every extension experiment shares. The p2p one is
// the paper's ping-pong (mpptest.PingPong); the collective one is completion:
// each operation from a synchronised start to the last rank's return. This
// file holds both, the four collective operations the experiments give
// completion, and the forced-mode session shape. What stays with each
// experiment is its topology, its sizes and the counters it reads.
//
// Four experiments do not build a fresh session per point. adaptive.go's
// loaded transfer reads the clock itself: one send from its start on rank 0
// to its completion on rank 8, across a re-plan. scale.go, heteromux.go and
// multileader.go time every (operation, size) point of a configuration inside
// one session through completion: a Build of scale's 1024-rank machine per
// point, or an MPI_Init sweep per point on the autotuned machines of the other
// two, would be most of the experiment.

import (
	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/vtime"
)

// collOp is one collective call on fresh buffers; size is the per-rank
// payload in bytes (for alltoall, the block each pair exchanges).
type collOp func(comm *mpi.Comm, size int) error

// at binds op to one payload size, as completion takes it.
func (op collOp) at(size int) func(comm *mpi.Comm) error {
	return func(comm *mpi.Comm) error { return op(comm, size) }
}

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

// grid is every point of a configuration as one session times them: each op
// at each size, op by op, so ops[o] at sizes[s] is point o*len(sizes)+s.
func grid(sizes []int, ops ...collOp) []func(comm *mpi.Comm) error {
	var points []func(comm *mpi.Comm) error
	for _, op := range ops {
		for _, size := range sizes {
			points = append(points, op.at(size))
		}
	}
	return points
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

// completion runs the session as one call of each op in turn, each from a
// synchronised start — a barrier, then a gate every rank leaves at the instant
// the last one reaches it — and returns per op what the machine took, the time
// from that instant to the last rank's return, beside rank 0's own. A non-nil
// sample is called twice per op with the op's index, opening and closing the
// window a counter is read over: as the gate fires, before any rank leaves
// it, and as the last rank returns — so neither a barrier, another op nor
// Finalize is inside it.
func completion(sess *cluster.Session, sample func(op int), ops ...func(comm *mpi.Comm) error) (last, rank0 []vtime.Duration, err error) {
	last, rank0 = make([]vtime.Duration, len(ops)), make([]vtime.Duration, len(ops))
	gate, waiting, done := vtime.NewEvent(sess.S, "start"), 0, 0
	if sample == nil {
		sample = func(int) {}
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		for i, op := range ops {
			if err := comm.Barrier(); err != nil {
				return err
			}
			if waiting++; waiting < len(sess.Ranks) {
				gate.Wait()
			} else {
				open := gate
				gate, waiting, done = vtime.NewEvent(sess.S, "start"), 0, 0
				sample(i)
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
			if done++; done == len(sess.Ranks) {
				sample(i)
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
