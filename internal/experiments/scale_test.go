package experiments

// The leader level of the two-level trees on the scale machine's shape: what
// a tree derived from the backbone's LogGP numbers buys over the binomial one
// it replaced, on the last rank's clock from a synchronised start, and the
// trace instant the numbers are explained from.

import (
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// latencyOps are the three small tree collectives, in the order every
// synchronised-start figure of this file and of the README was taken in.
var latencyOps = []func(comm *mpi.Comm) error{
	func(comm *mpi.Comm) error { return comm.Barrier() },
	func(comm *mpi.Comm) error { return comm.Bcast(make([]byte, 64), 64, mpi.Byte, 0) },
	func(comm *mpi.Comm) error {
		return comm.Allreduce(make([]byte, 64), make([]byte, 64), 8, mpi.Float64, mpi.OpSum)
	},
}

// latencies runs latencyOps on the nClusters×perCluster machine with the
// two-level trees forced.
func latencies(t *testing.T, nClusters, perCluster int, tr *trace.Tracer) (last, rank0 []vtime.Duration) {
	t.Helper()
	topo := ScaleTopo(nClusters, perCluster)
	topo.Trace = tr
	sess, err := forced(topo, mpi.CollHier)
	if err != nil {
		t.Fatal(err)
	}
	last, rank0, err = completion(sess, nil, latencyOps...)
	if err != nil {
		t.Fatal(err)
	}
	return last, rank0
}

// TestLeaderTreeFinishesSooner: on 16 clusters of 4 ranks behind the capped
// backbone, Barrier, 64 B Bcast and 64 B Allreduce finish well ahead of what
// they took over a binomial leader tree — 1087.3, 691.2 and 1413.0 µs, this
// test's own figures at the commit before the tree — and the root of the
// Bcast is held no longer than it was (219.4 µs: its four backbone and two
// island sends; the 1.6 µs it now gives are trunk queueing behind leaders
// that send sooner, a fifth backbone send would be 50).
func TestLeaderTreeFinishesSooner(t *testing.T) {
	last, rank0 := latencies(t, 16, 4, nil)
	for i, c := range []struct {
		name     string
		binomial float64
		within   float64
	}{{"Barrier", 1087.3, 0.85}, {"64 B Bcast", 691.2, 0.9}, {"64 B Allreduce", 1413.0, 0.85}} {
		got := last[i].Micros()
		t.Logf("%s: %.1f us, %.2f x the binomial leader tree's %.1f", c.name, got, got/c.binomial, c.binomial)
		if got > c.within*c.binomial {
			t.Errorf("%s takes %.1f us on the last rank's clock, want at most %.2f x the binomial leader tree's %.1f",
				c.name, got, c.within, c.binomial)
		}
	}
	if got := rank0[1].Micros(); got > 225 {
		t.Errorf("the root leaves its 64 B Bcast after %.1f us, 219.4 over the binomial leader tree: its fan-out grew", got)
	}
}

// leaderLevel is what a tree.leader instant's class records: the LogGP inputs
// in µs, the tree's depth and widest fan-out, and the Allreduce's shape of the
// leader level with what the exchange and the tree (up and down) are priced at.
type leaderLevel struct {
	o, d, g            float64
	depth, fanOut      int
	allreduce          string
	exchange, twoTrees float64
}

func readLeaderLevel(t *testing.T, ev trace.Event) (l leaderLevel) {
	t.Helper()
	if _, err := fmt.Sscanf(strings.NewReplacer(",", " ", "us", " ", "/B", "").Replace(ev.Args.Class),
		"o=%g D=%g G=%g depth=%d fanout=%d allreduce=%s exchange=%g tree=%g",
		&l.o, &l.d, &l.g, &l.depth, &l.fanOut, &l.allreduce, &l.exchange, &l.twoTrees); err != nil {
		t.Fatalf("%v: %v", ev, err)
	}
	return l
}

// TestLeaderTreeAllreduceShapeIsLegible: the Allreduce's choice between the
// leaders' all-pairs exchange and the tree up and down is on the record, with
// both prices, and goes to the cheaper. Two leaders on the TCP backbone (the
// 2×4 SCI + Myrinet machine) exchange; 64 leaders behind the capped trunk
// would put 64·63 vectors on it, and keep the tree at 64 B, 1 KiB and 16 KiB.
func TestLeaderTreeAllreduceShapeIsLegible(t *testing.T) {
	hetero := heteroTopo(false)
	hetero.Autotune = false
	for _, c := range []struct {
		name  string
		topo  cluster.Topology
		sizes []int
		want  string
	}{
		{"2x4 SCI+Myrinet", hetero, []int{64, 1 << 10, 64 << 10}, "exchange"},
		{"64x16 scale", ScaleTopo(64, 16), []int{64, 1 << 10, 16 << 10}, "tree"},
	} {
		tr := trace.New(nil)
		c.topo.Trace = tr
		sess, err := forced(c.topo, mpi.CollHier)
		if err != nil {
			t.Fatal(err)
		}
		err = sess.Run(func(_ int, comm *mpi.Comm) error {
			for _, size := range c.sizes {
				if err := comm.Allreduce(make([]byte, size), make([]byte, size), size/8, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range c.sizes {
			seen := 0
			for _, ev := range tr.Events() {
				if ev.Name != "tree.leader" || ev.Args.Bytes != int64(size) {
					continue
				}
				seen++
				l := readLeaderLevel(t, ev)
				t.Logf("%s: %v", c.name, ev)
				cheaper := map[bool]string{true: "exchange", false: "tree"}[l.exchange < l.twoTrees]
				if l.allreduce != c.want || cheaper != c.want || l.exchange <= 0 || l.twoTrees <= 0 {
					t.Errorf("%s, %d B: allreduce=%s at exchange %g us, tree %g us; want %s, and priced lower",
						c.name, size, l.allreduce, l.exchange, l.twoTrees, c.want)
				}
			}
			if seen != 1 {
				t.Errorf("%s: %d tree.leader instants for %d B, want one", c.name, seen, size)
			}
		}
	}
}

// TestLeaderTreeIsLegible: the shape of the leader level is on the record.
// A traced session emits one tree.leader instant per message size its tree
// collectives compile — here two, the Barrier's 0 B and the 64 B the Bcast
// and both halves of the Allreduce share — carrying the LogGP inputs, the
// leader count, depth, widest fan-out, the predicted completion, which (the
// model knows no trunk) the measured one is not below, and the Allreduce's
// shape of the leader level with both its prices. -v prints the
// rows README quotes for 16, 32 and 64 clusters of 16 ranks.
func TestLeaderTreeIsLegible(t *testing.T) {
	for _, nc := range []int{16, 32, 64} {
		tr := trace.New(nil)
		last, rank0 := latencies(t, nc, 16, tr)
		t.Logf("%d clusters: Barrier %.1f us, 64 B Bcast %.1f (root leaves after %.1f), 64 B Allreduce %.1f",
			nc, last[0].Micros(), last[1].Micros(), rank0[1].Micros(), last[2].Micros())
		bySize := map[int64]trace.Event{}
		for _, ev := range tr.Events() {
			if ev.Name != "tree.leader" {
				continue
			}
			if _, twice := bySize[ev.Args.Bytes]; twice || ev.Kind != trace.KCtrl {
				t.Errorf("%d clusters: a second %s instant for %d B: %v", nc, ev.Kind, ev.Args.Bytes, ev)
			}
			bySize[ev.Args.Bytes] = ev
			t.Logf("  %v", ev)
		}
		for i, size := range []int64{0, 64} {
			ev, ok := bySize[size]
			if !ok || len(bySize) != 2 {
				t.Fatalf("%d clusters: tree.leader instants for sizes %v, want one for 0 B and one for 64 B", nc, bySize)
			}
			l := readLeaderLevel(t, ev)
			if l.o != 30 || l.d != 124 || l.g <= 0 || int(ev.Args.Seq) != nc || l.depth < 2 || l.fanOut > 6 {
				t.Errorf("%d clusters: %v: want o=30 D=124 of the TCP backbone, G > 0, %d leaders, a tree at least two deep and at most 6 wide", nc, ev, nc)
			}
			if predicted := vtime.Duration(ev.Args.Val); predicted <= 0 || predicted > last[i] {
				t.Errorf("%d clusters, %d B: predicted completion %v, measured %v", nc, size, predicted, last[i])
			}
		}
	}
}
