package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"mpichmad/internal/mpi"
)

// A session holds one buffer list, and every network, every process and,
// through the processes, every shared-memory segment draws from it: a
// buffer released on one rank serves the next lease of its class on
// another, an intra-node message's segment slot is one of its buffers, and
// at the end of an autotuned triangle session every buffer is home.
func TestSessionSharesOneBufList(t *testing.T) {
	sess, err := Build(Topology{
		Nodes: []NodeSpec{{Name: "n0", Procs: 2}, {Name: "n1", Procs: 1}},
		Networks: []NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "n1"}},
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, net := range sess.Networks {
		if net.Bufs() != &sess.bufs {
			t.Errorf("network %s draws from a list of its own", name)
		}
	}
	for _, rk := range sess.Ranks {
		if rk.Eng.Bufs != &sess.bufs {
			t.Errorf("rank %d draws from a list of its own", rk.Rank)
		}
	}
	released := sess.Ranks[0].Eng.Bufs.Get(1000)
	released.Release()
	if got := sess.Ranks[2].Eng.Bufs.Get(1000); got != released {
		t.Error("a buffer rank 0 released did not serve rank 2's lease")
	} else {
		got.Release()
	}

	// Ranks 0 and 1 share node n0: their message crosses its segment in a
	// slot of the 4 MiB class, which nothing else of the session asks for.
	const big = 3 << 20
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		switch rank {
		case 0:
			return c.Send(bytes.Repeat([]byte{7}, big), big, mpi.Byte, 1, 0)
		case 1:
			buf := make([]byte, big)
			if _, err := c.Recv(buf, big, mpi.Byte, 0, 0); err != nil {
				return err
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{7}, big)) {
				return fmt.Errorf("the intra-node message arrived wrong")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, made := sess.bufs.Made(); made < 4<<20 {
		t.Errorf("the session's list made %d bytes: the segment slot came from another list", made)
	}
	if out := sess.bufs.Out(); out != 0 {
		t.Errorf("%d buffers out at the end of the session", out)
	}

	tri := triangleBufsSession(t)
	if out := tri.bufs.Out(); out != 0 {
		t.Errorf("%d buffers out at the end of the autotuned triangle session", out)
	}
}

// triangleBufsSession runs MPI_Init's autotuning sweep and one 1 MiB round of
// the benchmark's four collectives on the bridged triangle.
func triangleBufsSession(t *testing.T) *Session {
	t.Helper()
	topo := bridgedTriangle()
	topo.Autotune = true
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		n, per := c.Size(), 1<<20/c.Size()
		in, out, all := make([]byte, per*n), make([]byte, per*n), make([]byte, per*n)
		if err := c.Bcast(in, per*n, mpi.Byte, 0); err != nil {
			return err
		}
		if err := c.Allreduce(in, out, per*n, mpi.Byte, mpi.OpMax); err != nil {
			return err
		}
		if err := c.Allgather(in[:per], all, per, mpi.Byte); err != nil {
			return err
		}
		return c.Alltoall(in, out, per, mpi.Byte)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// The buffers an autotuned triangle session makes, in MB of their classes'
// capacity: the session's one list makes what the most demanding phase holds
// at once, not what each rank, network and phase held apart. Measured 77 MB
// (702 buffers); the budget allows 8 MB more, about a tenth. Lists per rank
// and per network that dropped their buffers after the sweep made 116 MB.
func TestAllocBudgetTriangleBufsMade(t *testing.T) {
	const budgetMB = 77 + 8
	sess := triangleBufsSession(t)
	n, mb := sess.Metrics.Get("netsim.bufs_made", ""), sess.Metrics.Get("netsim.bufs_made_MB", "")
	t.Logf("%d buffers made, %d MB", n, mb)
	if made, bytes := sess.bufs.Made(); n != int64(made) || mb != bytes>>20 {
		t.Errorf("metrics netsim.bufs_made, _MB = %d, %d; the list made %d, %d B", n, mb, made, bytes)
	}
	if mb > budgetMB {
		t.Errorf("the autotuned triangle session made %d MB of buffers, budget %d MB", mb, budgetMB)
	}
}
