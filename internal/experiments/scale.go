package experiments

// The scale experiment (X8): the 1000+-rank machine the hierarchical
// routing overhaul exists for. 64 SCI islands of 16 ranks each — 1024
// ranks — chained over one aggregate-bandwidth-capped TCP backbone
// through per-cluster gateways, running Allreduce and Bcast through the
// two-level collectives. At this size the historical all-pairs planner
// state alone (1024² path walks at build, again per re-plan) dominated
// wall time; the bloc-quotient plan plus lazy rails/classes keep the
// session build linear-ish in ranks, which is what lets this experiment
// run in CI at all. Simulated times are deterministic: they land in the
// rendered table, testdata/all.txt pins them and the claims ledger's x8.*
// rows judge them. Wall-clock cost is the host's: the root
// BenchmarkScaleMachine records it in BENCH_scale.json and cmd/benchcheck
// gates it.

import (
	"fmt"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
)

// The scale machine: 64 clusters × 16 ranks = 1024 ranks.
const (
	scaleClusters   = 64
	scaleRanksPer   = 16
	scaleBcastRoot  = 0
	scaleMaxPayload = 16 << 10
)

// ScaleTopo builds the nClusters×perCluster cluster-of-clusters: one
// sisci island per cluster, the first node of every island multi-homed
// onto a single capped TCP backbone trunk (NetworkBandwidth=Bandwidth:
// concurrent crossings share one trunk instead of private pipes), with
// forwarding on so the island-interior ranks reach other clusters through
// their gateway. Exported for bench/, whose coll_scale1024 workload runs
// on it.
func ScaleTopo(nClusters, perCluster int) cluster.Topology {
	bb := netsim.FastEthernetTCP()
	bb.NetworkBandwidth = bb.Bandwidth
	topo := cluster.Topology{
		Forwarding: true,
		// Single-rail: at 1024 ranks the second-rail sweep would double the
		// planner's per-pair work for rails striping never exercises here.
		MaxPaths: 1,
	}
	gateways := make([]string, 0, nClusters)
	for c := 0; c < nClusters; c++ {
		nodes := make([]string, 0, perCluster)
		for n := 0; n < perCluster; n++ {
			name := fmt.Sprintf("c%02dn%02d", c, n)
			topo.Nodes = append(topo.Nodes, cluster.NodeSpec{Name: name, Procs: 1})
			nodes = append(nodes, name)
		}
		topo.Networks = append(topo.Networks, cluster.NetworkSpec{
			Name:     fmt.Sprintf("cl%03d", c),
			Protocol: "sisci",
			Nodes:    nodes,
		})
		gateways = append(gateways, nodes[0])
	}
	topo.Networks = append(topo.Networks, cluster.NetworkSpec{
		Name: "bb", Protocol: "tcp", Params: &bb, Nodes: gateways,
	})
	return topo
}

// scale (X8) runs Allreduce and Bcast sweeps and a Barrier on the full
// 1024-rank machine and reports each operation's completion: from a synchronised
// start to the last rank's return (rank 0 roots every Bcast, and a root
// leaves when its own sends are away). It is one session for both
// operations and every size, where the other collective experiments build
// a session per point: a Build of this machine per point would be most of
// the experiment.
func scale() (*Result, error) {
	sess, err := cluster.Build(ScaleTopo(scaleClusters, scaleRanksPer))
	if err != nil {
		return nil, err
	}
	sizes := []int{64, 1 << 10, scaleMaxPayload}
	var ops []func(comm *mpi.Comm) error
	for _, n := range sizes {
		ops = append(ops,
			func(comm *mpi.Comm) error {
				return comm.Allreduce(make([]byte, n), make([]byte, n), n/8, mpi.Float64, mpi.OpSum)
			},
			func(comm *mpi.Comm) error { return comm.Bcast(make([]byte, n), n, mpi.Byte, scaleBcastRoot) })
	}
	ops = append(ops, func(comm *mpi.Comm) error { return comm.Barrier() })
	took, _, err := completion(sess, nil, ops...)
	if err != nil {
		return nil, err
	}
	ar := &stats.Series{Name: "Allreduce"}
	bc := &stats.Series{Name: "Bcast"}
	bar := &stats.Series{Name: "Barrier"} // no payload: its one point sits at size 0
	for i, n := range sizes {
		ar.Add(n, took[2*i])
		bc.Add(n, took[2*i+1])
	}
	bar.Add(0, took[len(took)-1])
	res := render("scale", fmt.Sprintf("Scale: %d-rank machine (%d clusters x %d ranks, capped backbone), synchronised start to the last rank's return",
		len(sess.Ranks), scaleClusters, scaleRanksPer), unitTime, []*stats.Series{ar, bc, bar})
	// Zero relaying ranks is the election doing its job: leaders sit on
	// the multi-homed gateways, so leader-level exchanges ride the
	// backbone directly instead of being store-and-forwarded.
	res.Text += fmt.Sprintf("\nRouting blocs: %d (of %d ranks); store-and-forward relaying ranks: %d\n",
		sess.RoutePlan().BlocCount(), len(sess.Ranks), len(sess.RelayStats()))
	return res, nil
}
