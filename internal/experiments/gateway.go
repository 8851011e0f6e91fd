package experiments

// The multi-gateway experiment (X5): the routing subsystem's benchmark
// scenario. A 3-cluster bridged topology — two SCI islands and a Myrinet
// island with NO common network, chained by two point-to-point TCP
// bridges — exercises everything the cost-model router added: multi-hop
// forwarded routes, gateway-aware leader election, pipelined relaying,
// and gateway load accounting.

import (
	"fmt"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// gatewayTopo is the bridged 3-cluster topology (ranks 0-8). The bridge
// endpoints a2, b1, b2, c1 are the gateways; rank numbering makes the
// lowest-rank leader convention pick non-gateway leaders, so the
// gateway-aware election has real work to do.
func gatewayTopo() cluster.Topology {
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
		},
		Forwarding: true,
	}
}

// gatewayRun times one op on a fresh session and returns its completion,
// the messages the gateways relayed between the synchronised start and the
// last rank's return (the opening sample is stored, the closing one
// subtracts it) and the whole session's relay stats.
func gatewayRun(topo cluster.Topology, mode mpi.CollMode, size int,
	op collOp) (vtime.Duration, uint64, []stats.RelayStat, error) {
	sess, err := forced(topo, mode)
	if err != nil {
		return 0, 0, nil, err
	}
	var relayed uint64
	took, _, err := completion(sess, func(int) { relayed = forwardedBy(sess) - relayed }, op.at(size))
	return took[0], relayed, sess.RelayStats(), err
}

// forwardedBy is the number of messages the session's gateways have
// relayed so far.
func forwardedBy(sess *cluster.Session) (total uint64) {
	for _, rk := range sess.Ranks {
		total += rk.ChMad.NForwarded
	}
	return total
}

// gatewayColl measures one collective's completion on the bridged topology
// and the messages the gateways relayed for it, per size.
func gatewayColl(topo cluster.Topology, mode mpi.CollMode, sizes []int,
	op collOp) (*stats.Series, map[int]uint64, []stats.RelayStat, error) {
	s := &stats.Series{}
	hops := make(map[int]uint64)
	var relays []stats.RelayStat
	for _, size := range sizes {
		took, relayed, rs, err := gatewayRun(topo, mode, size, op)
		if err != nil {
			return nil, nil, nil, err
		}
		s.Add(size, took)
		hops[size] = relayed
		if size == sizes[len(sizes)-1] {
			relays = rs
		}
	}
	return s, hops, relays, nil
}

// gatewayCollectives (X5) benchmarks the bridged 3-cluster topology:
// flat, gateway-aware two-level and leader-oblivious two-level Bcast and
// Allreduce (virtual time and gateway hops per operation), plus the
// pipelined-vs-store-and-forward relay comparison on the longest routed
// pair (a0 -> c2, four gateways). The *_gw two-level series must beat
// flat past 64 KiB and the gateway-aware leaders must relay strictly
// fewer messages than the oblivious ones — both rows of the claims ledger.
func gatewayCollectives() (*Result, error) {
	sizes := []int{8, 4 << 10, 64 << 10, 256 << 10}
	aware := gatewayTopo()
	naive := gatewayTopo()
	naive.ObliviousLeaders = true

	benches := []struct {
		name string
		topo cluster.Topology
		mode mpi.CollMode
		op   collOp
	}{
		{"Bcast_flat_gw", aware, mpi.CollFlat, bcast},
		{"Bcast_2level_gw", aware, mpi.CollHier, bcast},
		{"Bcast_2level_gwnaive", naive, mpi.CollHier, bcast},
		{"Allreduce_flat_gw", aware, mpi.CollFlat, allreduce},
		{"Allreduce_2level_gw", aware, mpi.CollHier, allreduce},
		{"Allreduce_2level_gwnaive", naive, mpi.CollHier, allreduce},
	}
	var series []*stats.Series
	hopRows := make(map[string]map[int]uint64)
	var awareRelays []stats.RelayStat
	for _, bm := range benches {
		s, hops, relays, err := gatewayColl(bm.topo, bm.mode, sizes, bm.op)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bm.name, err)
		}
		s.Name = bm.name
		series = append(series, s)
		hopRows[bm.name] = hops
		if bm.name == "Bcast_2level_gw" {
			awareRelays = relays
		}
		if bm.mode == mpi.CollHier {
			// Gateway hops as a series of their own: the acceptance
			// criterion ("aware crosses strictly fewer gateway hops than
			// oblivious") is a ledger row like the timings' claims.
			// The point value is a message count, not microseconds.
			hs := &stats.Series{Name: "GwHops_" + bm.name}
			for _, size := range sizes {
				hs.Add(size, vtime.Duration(hops[size])*vtime.Microsecond)
			}
			series = append(series, hs)
		}
	}

	// Relay pipelining on the longest routed pair: a0 (rank 0) to c2
	// (rank 8) crosses all four gateways.
	relaySizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	relaySeries := func(name string, pipelined bool) (*stats.Series, error) {
		s := &stats.Series{Name: name}
		for _, size := range relaySizes {
			sess, err := cluster.Build(gatewayTopo())
			if err != nil {
				return nil, err
			}
			for _, rk := range sess.Ranks {
				rk.ChMad.RelayPipelining = pipelined
			}
			oneWay, err := pingPong(sess, 0, 8, size)
			if err != nil {
				return nil, err
			}
			s.Add(size, oneWay)
		}
		return s, nil
	}
	piped, err := relaySeries("Relay_pipelined", true)
	if err != nil {
		return nil, err
	}
	stored, err := relaySeries("Relay_storefwd", false)
	if err != nil {
		return nil, err
	}
	series = append(series, piped, stored)

	res := render("gateway",
		"Extension X5: cost-model routing on a bridged 3-cluster topology (2 TCP bridges, no common network)",
		unitTime, series)

	var b strings.Builder
	b.WriteString(res.Text)
	b.WriteString("\nGateway hops per operation (relayed messages, 64K payload):\n")
	fmt.Fprintf(&b, "%-26s %14s\n", "series", "gateway hops")
	for _, bm := range benches {
		fmt.Fprintf(&b, "%-26s %14d\n", bm.name, hopRows[bm.name][64<<10])
	}
	b.WriteString("\n")
	b.WriteString(stats.RelayTable(
		"Gateway load, two-level Bcast at 256K (gateway-aware leaders)", awareRelays))
	res.Text = b.String()
	return res, nil
}
