package route

import (
	"fmt"
	"testing"

	"mpichmad/internal/netsim"
)

// scaleGraph builds the scale-experiment shape: nClusters SCI clusters of
// perCluster ranks, one gateway per cluster (the cluster's first rank) on
// a single trunk-capped TCP backbone.
func scaleGraph(nClusters, perCluster int) Graph {
	g := Graph{Nets: make(map[string]netsim.Params)}
	bb := netsim.FastEthernetTCP()
	bb.NetworkBandwidth = bb.Bandwidth
	g.Nets["bb"] = bb
	for c := 0; c < nClusters; c++ {
		fabric := fmt.Sprintf("cl%03d", c)
		g.Nets[fabric] = netsim.SCISISCI()
		for m := 0; m < perCluster; m++ {
			nets := []string{fabric}
			if m == 0 {
				nets = append(nets, "bb")
			}
			g.NetsOf = append(g.NetsOf, nets)
			g.N++
		}
	}
	return g
}

// planWorkload exercises the resolution pattern a scale session drives:
// leader-election style queries from every bloc representative to every
// other bloc (builds all quotient trees), route installation for every
// member toward its cluster leader, and hop/cost queries over all leader
// pairs (the inter-cluster recalibration scan).
func planWorkload(b *testing.B, plan *Plan, nClusters, perCluster int) {
	for bl := 0; bl < plan.BlocCount(); bl++ {
		r := plan.BlocMembers(bl)[0]
		for ob := 0; ob < plan.BlocCount(); ob++ {
			if ob == bl {
				continue
			}
			o := plan.BlocMembers(ob)[0]
			if _, ok := plan.Cost(r, o); !ok {
				b.Fatalf("unroutable bloc pair %d->%d", bl, ob)
			}
			if plan.Hops(r, o) < 0 {
				b.Fatalf("no hops for bloc pair %d->%d", bl, ob)
			}
		}
	}
	for c := 0; c < nClusters; c++ {
		leader := c * perCluster
		for m := 1; m < perCluster; m++ {
			if hops, ok := plan.Path(leader+m, leader); !ok || len(hops) == 0 {
				b.Fatalf("member %d cannot reach leader %d", leader+m, leader)
			}
		}
	}
	for a := 0; a < nClusters; a++ {
		for o := 0; o < nClusters; o++ {
			if a == o {
				continue
			}
			if _, ok := plan.Cost(a*perCluster, o*perCluster); !ok {
				b.Fatalf("unroutable leader pair %d->%d", a, o)
			}
		}
	}
}

// BenchmarkComputeOpts measures lazy plan construction plus the full
// session-style resolution workload at growing rank counts — the series
// the scale benchcheck gate bounds sub-quadratic.
func BenchmarkComputeOpts(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		nClusters := n / 16
		g := scaleGraph(nClusters, 16)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan := ComputeOpts(g, Options{})
				planWorkload(b, plan, nClusters, 16)
			}
		})
	}
}

// BenchmarkComputeEager measures the retained dense all-pairs reference —
// the planner this PR replaced — on the same shapes, for the before/after
// record. (1024 ranks is omitted: the eager planner needs tens of seconds
// per iteration there, which is the point of the refactor.)
func BenchmarkComputeEager(b *testing.B) {
	for _, n := range []int{64, 256} {
		g := scaleGraph(n/16, 16)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeDense(g, Options{})
			}
		})
	}
}
