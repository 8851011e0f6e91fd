package experiments

// The multi-leader collectives experiment (id "multileader"): bandwidth
// aggregation across every gateway of the bridged triangle. Each island
// fronts two bridges, so leader-set election widens every cluster's
// leader into a two-member, gateway-diverse set and the 2level-multi
// algorithms shard the inter-cluster phase across both — where the
// single-leader two-level form funnels the whole payload through one
// gateway and leaves the other bridge idle.
//
//   - ML_<op>_multi, for Bcast, Allreduce, Allgather and Alltoall: the
//     session autotunes at init (Autotune: true) and the measured run
//     dispatches through the resulting table (CollAuto) — the multi-leader
//     schedules must be *selected*, not forced, for the large-payload
//     brackets.
//   - ML_<op>_single: the same autotuned sessions with the single-leader
//     two-level form forced (CollHier), the baseline the paper's §4.3
//     two-level collectives correspond to.
//
// A size is the whole payload of the operation: the vector of a Bcast or an
// Allreduce, the matrix a rank sends in an Alltoall, the vector every rank
// ends an Allgather with — so that the four compare, and with the time the
// bridges need for it.
//
// Every time is a completion: from a synchronised start to the last rank's
// return. The acceptance bars are the claims ledger's x9.* rows: multi faster
// than single at 1 MiB by 0.9 of the ratios measured on that clock (1.62x,
// 2.6x, 2.67x, 1.93x), and no multi time below what its busiest bridge needs
// for its share of the payload at 11.2 MB/s.

import (
	"fmt"
	"strings"

	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// multiLeaderRun measures one collective's completion on an autotuned
// bridged-triangle session with the given selection mode, plus the wire
// bytes each bridge network carried between the synchronised start and the
// last rank's return (the opening sample is stored, the closing one
// subtracts it) — the crossing-split diagnostic.
func multiLeaderRun(mode mpi.CollMode, size int, op collOp) (vtime.Duration, map[string]uint64, error) {
	topo := triangleTopo()
	topo.Autotune = true
	sess, err := forced(topo, mode)
	if err != nil {
		return 0, nil, err
	}
	crossed := make(map[string]uint64)
	took, _, err := completion(sess, func() {
		for name, net := range sess.Networks {
			if net.Params.Protocol == "tcp" {
				crossed[name] = net.Stats.Bytes - crossed[name]
			}
		}
	}, op.at(size))
	return took[0], crossed, err
}

// multiLeader (X9) benchmarks the multi-leader collectives on the
// bridged triangle: autotuner-selected multi-leader Bcast, Allreduce,
// Allgather and Alltoall against the forced single-leader two-level forms,
// with a per-bridge crossing table at the largest payload showing the
// inter-cluster phase engaging every gateway.
func multiLeader() (*Result, error) {
	sizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	// The shared Allgather and Alltoall take the block of one rank.
	perRank := func(op collOp) collOp {
		return func(comm *mpi.Comm, size int) error { return op(comm, max(size/comm.Size(), 1)) }
	}
	type bench struct {
		name string
		mode mpi.CollMode
		op   collOp
	}
	var benches []bench
	for _, o := range []struct {
		name string
		op   collOp
	}{{"Bcast", bcast}, {"Allreduce", allreduce}, {"Allgather", perRank(allgather)}, {"Alltoall", perRank(alltoall)}} {
		benches = append(benches,
			bench{"ML_" + o.name + "_multi", mpi.CollAuto, o.op},
			bench{"ML_" + o.name + "_single", mpi.CollHier, o.op})
	}
	var series []*stats.Series
	crossings := make(map[string]map[string]uint64)
	for _, bm := range benches {
		s := &stats.Series{Name: bm.name}
		for _, size := range sizes {
			took, crossed, err := multiLeaderRun(bm.mode, size, bm.op)
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", bm.name, size, err)
			}
			s.Add(size, took)
			if size == sizes[len(sizes)-1] {
				crossings[bm.name] = crossed
			}
		}
		series = append(series, s)
	}
	res := render("multileader",
		"Extension X9: multi-leader collectives on the bridged triangle (autotuned vs forced single-leader)",
		unitTime, series)

	// Per-bridge crossing table at the largest payload: the multi-leader
	// rows must spread bytes over all three bridges, the single-leader
	// rows concentrate them.
	bridges := []string{"gwAB", "gwBC", "gwCA"}
	var b strings.Builder
	b.WriteString(res.Text)
	fmt.Fprintf(&b, "\nBridge bytes per operation at %s:\n", stats.SizeLabel(sizes[len(sizes)-1]))
	fmt.Fprintf(&b, "%-22s %12s %12s %12s\n", "series", bridges[0], bridges[1], bridges[2])
	for _, bm := range benches {
		c := crossings[bm.name]
		fmt.Fprintf(&b, "%-22s %12d %12d %12d\n", bm.name, c[bridges[0]], c[bridges[1]], c[bridges[2]])
	}
	res.Text = b.String()
	return res, nil
}
