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
//   - ML_<op>_single: the same autotuned machine with the single-leader
//     two-level form forced (CollHier), the baseline the paper's §4.3
//     two-level collectives correspond to.
//
// Each mode is one session: the MPI_Init sweep runs once, and every
// (operation, size) point is a completion inside it.
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

// multiLeaderRun times ops in turn on one autotuned bridged-triangle session
// with the given selection mode and returns per op its completion and the
// wire bytes each bridge network carried between its synchronised start and
// the last rank's return (the opening sample is stored, the closing one
// subtracts it) — the crossing-split diagnostic.
func multiLeaderRun(mode mpi.CollMode, ops ...func(comm *mpi.Comm) error) ([]vtime.Duration, []map[string]uint64, error) {
	topo := triangleTopo()
	topo.Autotune = true
	sess, err := forced(topo, mode)
	if err != nil {
		return nil, nil, err
	}
	crossed := make([]map[string]uint64, len(ops))
	for i := range crossed {
		crossed[i] = make(map[string]uint64)
	}
	took, _, err := completion(sess, func(op int) {
		for name, net := range sess.Networks {
			if net.Params.Protocol == "tcp" {
				crossed[op][name] = net.Stats.Bytes - crossed[op][name]
			}
		}
	}, ops...)
	return took, crossed, err
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
	ops := []string{"Bcast", "Allreduce", "Allgather", "Alltoall"}
	points := grid(sizes, bcast, allreduce, perRank(allgather), perRank(alltoall))
	modes := []struct {
		suffix string
		mode   mpi.CollMode
	}{{"_multi", mpi.CollAuto}, {"_single", mpi.CollHier}}
	// One session per mode; the series go op by op, multi before single.
	series := make([]*stats.Series, len(ops)*len(modes))
	crossings := make([]map[string]uint64, len(series))
	for m, md := range modes {
		took, crossed, err := multiLeaderRun(md.mode, points...)
		if err != nil {
			return nil, fmt.Errorf("ML%s: %w", md.suffix, err)
		}
		for o, name := range ops {
			s := &stats.Series{Name: "ML_" + name + md.suffix}
			for i, size := range sizes {
				s.Add(size, took[o*len(sizes)+i])
			}
			series[o*len(modes)+m] = s
			crossings[o*len(modes)+m] = crossed[(o+1)*len(sizes)-1]
		}
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
	for i, s := range series {
		c := crossings[i]
		fmt.Fprintf(&b, "%-22s %12d %12d %12d\n", s.Name, c[bridges[0]], c[bridges[1]], c[bridges[2]])
	}
	res.Text = b.String()
	return res, nil
}
