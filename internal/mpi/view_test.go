package mpi_test

// Tests of the communicator's dense hierarchy view (topology.go): which
// hierarchy it was built from, and when it is built again.

import (
	"fmt"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// A re-plan re-elects the session's one *Hierarchy in place and hands the
// same pointer to every rank's RefreshHierarchy. The world's next collective
// must compile against the new leaders on every rank; a Dup that already
// compiled against the old ones keeps them (schedules in flight on it agree
// across ranks), and a Dup first used after the refresh sees the new ones.
func TestViewFollowsReelection(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 2)) // world ranks a0 b0 a1 b1
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy()
	if h.Leaders == nil || h.Leaders[1] != 1 {
		t.Fatalf("elected leaders %v, want cluster 1 led by rank 1", h.Leaders)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHier)
	}
	leaderOf1 := func(what string, c *mpi.Comm, want int) error {
		if got := c.ViewLeaders(); len(got) != 2 || got[1] != want {
			return fmt.Errorf("rank %d: %s view has leaders %v, want cluster 1 led by %d", c.Rank(), what, got, want)
		}
		return nil
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		used, err := c.Dup()
		if err != nil {
			return err
		}
		late, err := c.Dup()
		if err != nil {
			return err
		}
		bcasts := func() error {
			for _, comm := range []*mpi.Comm{c, used} {
				if err := prepBcast(comm, 1000)(); err != nil {
					return err
				}
			}
			return nil
		}
		if err := bcasts(); err != nil {
			return err
		}
		if err := leaderOf1("world", c, 1); err != nil {
			return err
		}
		// The quiescent point of a re-plan: every rank is past the Bcasts
		// and asleep when rank 0 re-elects and refreshes all of them.
		if err := c.Barrier(); err != nil {
			return err
		}
		sess.Ranks[rank].Proc.Sleep(vtime.Millisecond)
		if rank == 0 {
			h.Leaders[1] = 3
			for _, rk := range sess.Ranks {
				rk.MPI.RefreshHierarchy(h)
			}
		}
		sess.Ranks[rank].Proc.Sleep(vtime.Millisecond)
		if err := bcasts(); err != nil {
			return err
		}
		if err := prepBcast(late, 1000)(); err != nil {
			return err
		}
		for _, v := range []struct {
			what string
			c    *mpi.Comm
			want int
		}{{"world", c, 3}, {"Dup used before the refresh", used, 1}, {"Dup first used after the refresh", late, 3}} {
			if err := leaderOf1(v.what, v.c, v.want); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
