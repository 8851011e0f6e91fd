package mpi_test

// Tests of the communicator's dense hierarchy view (topology.go): which
// hierarchy it was built from, and when it is built again.

import (
	"fmt"
	"slices"
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
	if h.Leaders == nil || h.Leaders[1][0].Rank != 1 {
		t.Fatalf("elected leaders %v, want cluster 1 led by rank 1", h.Leaders)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHier)
	}
	leaderOf1 := func(what string, c *mpi.Comm, want int) error {
		if got := c.ViewLeaders(); len(got) != 2 || got[1] != want {
			return fmt.Errorf("%s view has leaders %v, want cluster 1 led by %d", what, got, want)
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
			// A re-election writes a whole set: the new leader fronts the
			// old one's gateway.
			h.Leaders[1] = []mpi.Leader{{Rank: 3, Gateway: h.Leaders[1][0].Gateway}}
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

// The world's view depends on the hierarchy alone, so the ranks of a
// session hold one between them: the group's part is the same memory on
// every rank, only where the rank stands in it is its own, and what is
// shared cannot be appended into.
func TestWorldViewIsShared(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(3, 3)) // world ranks a0 b0 a1 b1 a2 b2
	if err != nil {
		t.Fatal(err)
	}
	n := len(sess.Ranks)
	clusterOf, clusters, remote := make([][]int, n), make([][][]int, n), make([][]int, n)
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		clusterOf[rank], clusters[rank], remote[rank] = c.View()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 2, 4}, {1, 3, 5}}; !slices.EqualFunc(clusters[0], want, slices.Equal[[]int]) {
		t.Fatalf("rank 0 sees clusters %v, want %v", clusters[0], want)
	}
	for r := 1; r < n; r++ {
		if &clusterOf[r][0] != &clusterOf[0][0] || &clusters[r][0] != &clusters[0][0] || &clusters[r][1][0] != &clusters[0][1][0] {
			t.Errorf("rank %d holds a view of its own, want the one rank 0 holds", r)
		}
		if want := []int{1 - r%2}; !slices.Equal(remote[r], want) {
			t.Errorf("rank %d: remote clusters %v, want %v", r, remote[r], want)
		}
	}
	// Three members grown by append sit in an array of four: unclipped, two
	// ranks appending to the list would write the same spare slot.
	a, b := append(clusters[0][0], 98), append(clusters[1][0], 99)
	if a[3] != 98 || b[3] != 99 || cap(clusters[0][0]) != 3 {
		t.Errorf("appends to the shared member list alias: %v and %v (cap %d)", a, b, cap(clusters[0][0]))
	}
}
