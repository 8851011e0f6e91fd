package cluster

// Eager==lazy equivalence for the session wiring layer: rails and link
// classes used to be materialized for every rank pair at build time
// (O(N²) planner walks); they are now resolved on first use and cached
// (SetRailSource on the device, the bloc-keyed class memo on the
// session). These tests pin the lazy results byte-identical to a full
// eager materialization — the cluster-layer half of the route package's
// TestHierarchicalMatchesDense property.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpichmad/internal/core"
	"mpichmad/internal/route"
)

// lazyTopologies is the deterministic corpus: every wiring mode the
// session supports — bridged forwarding with striping rails, forwarding
// off with the direct-edge fallback, the uniform single-protocol
// ablation, and multi-proc nodes for smp-class links.
func lazyTopologies() map[string]Topology {
	bridged := Topology{
		Nodes: []NodeSpec{
			{Name: "a0", Procs: 2}, {Name: "a1", Procs: 1}, {Name: "a2", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 2}, {Name: "b2", Procs: 1},
			{Name: "c0", Procs: 1}, {Name: "c1", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1", "a2"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"b0", "b1", "b2"}},
			{Name: "myriC", Protocol: "bip", Nodes: []string{"c0", "c1"}},
			{Name: "gwAB", Protocol: "tcp", Nodes: []string{"a2", "b1"}},
			{Name: "gwBC", Protocol: "tcp", Nodes: []string{"b2", "c1"}},
		},
		Forwarding: true,
	}
	noForward := bridged
	noForward.Forwarding = false
	noForward.Networks = append(append([]NetworkSpec(nil), bridged.Networks...),
		NetworkSpec{Name: "slowAll", Protocol: "tcp", Nodes: []string{
			"a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1"}})
	uniform := Topology{
		Nodes: []NodeSpec{
			{Name: "u0", Procs: 2}, {Name: "u1", Procs: 1},
			{Name: "u2", Procs: 1}, {Name: "u3", Procs: 2},
		},
		Networks: []NetworkSpec{
			{Name: "lan", Protocol: "tcp", Nodes: []string{"u0", "u1", "u2", "u3"}},
		},
		Uniform: true,
	}
	return map[string]Topology{
		"bridged-forwarding": bridged,
		"no-forwarding":      noForward,
		"uniform":            uniform,
	}
}

// randomLazyTopo builds a random multi-cluster topology: 2-4 islands of
// 1-3 nodes (some multi-proc) on random fast protocols, chained by tcp
// bridges, with forwarding on so multi-hop rails exist.
func randomLazyTopo(rng *rand.Rand) Topology {
	protos := []string{"sisci", "bip", "tcp"}
	var topo Topology
	topo.Forwarding = true
	topo.MaxPaths = rng.Intn(3) + 1
	var islands [][]string
	for c := 0; c < rng.Intn(3)+2; c++ {
		var nodes []string
		for n := 0; n < rng.Intn(3)+1; n++ {
			name := fmt.Sprintf("n%d_%d", c, n)
			topo.Nodes = append(topo.Nodes, NodeSpec{Name: name, Procs: rng.Intn(2) + 1})
			nodes = append(nodes, name)
		}
		if len(nodes) > 1 {
			topo.Networks = append(topo.Networks, NetworkSpec{
				Name:     fmt.Sprintf("isl%d", c),
				Protocol: protos[rng.Intn(len(protos))],
				Nodes:    nodes,
			})
		}
		islands = append(islands, nodes)
	}
	for c := 1; c < len(islands); c++ {
		a := islands[c-1][rng.Intn(len(islands[c-1]))]
		b := islands[c][rng.Intn(len(islands[c]))]
		topo.Networks = append(topo.Networks, NetworkSpec{
			Name: fmt.Sprintf("br%d", c), Protocol: "tcp", Nodes: []string{a, b},
		})
	}
	return topo
}

// eagerRails materializes what the historical eager installRoutes would
// have handed SetRails for one pair: nil for self and smp-plugged pairs,
// railsFor otherwise.
func eagerRails(sess *Session, r, dst int) []core.Route {
	if dst == r || dst < 0 || dst >= len(sess.places) {
		return nil
	}
	if sess.places[dst].node == sess.places[r].node && !sess.Topo.Uniform {
		return nil
	}
	return sess.railsFor(sess.plan, r, dst)
}

// eagerClass replicates the historical classifyLinks cell for one pair:
// self, smp, then the dominating class of the planned path.
func eagerClass(sess *Session, src, dst int) string {
	switch {
	case src == dst:
		return route.ClassSelf.String()
	case sess.places[dst].node == sess.places[src].node && !sess.Topo.Uniform:
		return route.ClassSMP.String()
	}
	if hops, ok := sess.plan.Path(src, dst); ok {
		return sess.plan.Info(hops).Class.String()
	}
	return ""
}

// checkLazyEqualsEager sweeps every pair of a built session and compares
// the lazily resolved rails and classes against the eager materialization.
func checkLazyEqualsEager(t *testing.T, sess *Session) {
	t.Helper()
	size := len(sess.places)
	for r := 0; r < size; r++ {
		dev := sess.Ranks[r].ChMad
		if dev == nil {
			continue
		}
		for dst := 0; dst < size; dst++ {
			want := eagerRails(sess, r, dst)
			got := dev.Rails(dst)
			if len(want) == 0 && len(got) == 0 {
				// eager SetRails(dst, nil) and a lazy miss both leave the
				// pair unroutable; the representations (nil vs empty) agree.
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("rails(%d->%d): lazy %+v, eager %+v", r, dst, got, want)
			}
			// A second query must serve the cached value unchanged.
			if again := dev.Rails(dst); !reflect.DeepEqual(again, got) {
				t.Fatalf("rails(%d->%d): cache replay diverged", r, dst)
			}
			wc := eagerClass(sess, r, dst)
			if gc := sess.LinkClassOf(r, dst); gc != wc {
				t.Fatalf("class(%d->%d): lazy %q, eager %q", r, dst, gc, wc)
			}
		}
	}
}

// TestLazyRailsAndClassesMatchEager pins the lazy session wiring
// byte-identical to the eager scheme it replaced, over every deterministic
// wiring mode and a seeded corpus of random multi-cluster topologies.
func TestLazyRailsAndClassesMatchEager(t *testing.T) {
	for name, topo := range lazyTopologies() {
		topo := topo
		t.Run(name, func(t *testing.T) {
			sess, err := Build(topo)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			checkLazyEqualsEager(t, sess)
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 12; iter++ {
			sess, err := Build(randomLazyTopo(rng))
			if err != nil {
				t.Fatalf("iter %d build: %v", iter, err)
			}
			checkLazyEqualsEager(t, sess)
		}
	})
}

// TestLazyRailsFlushOnReplan pins the O(1) cache flush: after a Replan
// the devices must serve rails and the session must serve classes of the
// NEW plan, exactly as an eager reinstall would.
func TestLazyRailsFlushOnReplan(t *testing.T) {
	topo := lazyTopologies()["bridged-forwarding"]
	sess, err := Build(topo)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	size := len(sess.places)
	// Warm every cache against the build-time plan.
	checkLazyEqualsEager(t, sess)
	if sess.Replan() == nil {
		t.Fatal("Replan returned nil plan")
	}
	// Every device lookup must now resolve against the fresh plan.
	for r := 0; r < size; r++ {
		for dst := 0; dst < size; dst++ {
			want := eagerRails(sess, r, dst)
			got := sess.Ranks[r].ChMad.Rails(dst)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-replan rails(%d->%d): lazy %+v, eager %+v", r, dst, got, want)
			}
		}
	}
}
