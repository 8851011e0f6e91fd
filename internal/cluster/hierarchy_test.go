package cluster

// Heterogeneous-topology collective tests: verify both the hierarchy
// discovery and the headline property of the two-level collectives — the
// slow inter-cluster backbone is crossed O(#clusters) times per
// operation, not O(log n)/O(n) like the topology-blind binomial trees.

import (
	"fmt"
	"testing"

	"mpichmad/internal/mpi"
)

// interleavedTwoCluster builds 2 SCI islands of 4 single-proc nodes each,
// joined by a TCP backbone. Node declarations alternate islands, so the
// even comm ranks land in cluster A and the odd ranks in cluster B — the
// adversarial placement where a flat binomial tree crosses the backbone
// on roughly half its edges.
func interleavedTwoCluster() Topology {
	var nodes []NodeSpec
	var a, b, all []string
	for i := 0; i < 4; i++ {
		an, bn := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		nodes = append(nodes, NodeSpec{Name: an, Procs: 1}, NodeSpec{Name: bn, Procs: 1})
		a, b = append(a, an), append(b, bn)
		all = append(all, an, bn)
	}
	return Topology{
		Nodes: nodes,
		Networks: []NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: a},
			{Name: "sciB", Protocol: "sisci", Nodes: b},
			{Name: "wan", Protocol: "tcp", Nodes: all},
		},
	}
}

func TestDiscoverHierarchyTwoClusters(t *testing.T) {
	sess, err := Build(interleavedTwoCluster())
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy()
	if h.NumClusters() != 2 {
		t.Fatalf("discovered %d clusters, want 2 (%v)", h.NumClusters(), h.ClusterNames)
	}
	if h.Inter.Net != "wan" {
		t.Fatalf("backbone = %q, want wan", h.Inter.Net)
	}
	for r := 0; r < 8; r++ {
		want := r % 2 // ranks alternate islands
		if sess.hier.ClusterOf[r] != want {
			t.Fatalf("rank %d in cluster %d, want %d", r, sess.hier.ClusterOf[r], want)
		}
	}
	for _, name := range h.ClusterNames {
		c := h.Nets[name]
		if c.BandwidthMBs <= h.Inter.BandwidthMBs {
			t.Fatalf("intra link %s (%.1f MB/s) not faster than backbone (%.1f MB/s)",
				c.Net, c.BandwidthMBs, h.Inter.BandwidthMBs)
		}
	}
	// Per-link mux: the TCP backbone's segment is bounded by TCP's own
	// native switch point (64K), not dragged down to the SCI islands'
	// 8K election — the backbone hops never cross an SCI link, so an 8K
	// cap would only shrink pipelining for no rendez-vous avoidance.
	if h.Inter.SegmentBytes <= 8<<10 || h.Inter.SegmentBytes > 64<<10 {
		t.Fatalf("backbone segment %d outside (8K, 64K] (TCP-native switch point)", h.Inter.SegmentBytes)
	}

	// Route metadata must agree with the discovered hierarchy: intra-
	// cluster peers are reached over the island fabric, cross-cluster
	// peers over the backbone.
	dev := sess.Ranks[0].ChMad
	if _, ok := dev.RouteTo(0); ok {
		t.Fatal("rank 0 has a ch_mad route to itself")
	}
	for dst := 1; dst < 8; dst++ {
		rt, ok := dev.RouteTo(dst)
		if !ok || rt.Channel == nil {
			t.Fatalf("rank 0 has no route to rank %d", dst)
		}
		name, params, ok := dev.RouteNet(dst)
		if !ok {
			t.Fatalf("rank 0 has no route metadata for rank %d", dst)
		}
		if sess.hier.ClusterOf[dst] == sess.hier.ClusterOf[0] {
			if name != "sciA" || params.Protocol != "sisci" {
				t.Errorf("intra-cluster route to rank %d uses %s/%s, want sciA/sisci", dst, name, params.Protocol)
			}
		} else if name != "wan" || params.Protocol != "tcp" {
			t.Errorf("cross-cluster route to rank %d uses %s/%s, want wan/tcp", dst, name, params.Protocol)
		}
	}
}

// wanPackets runs nOps iterations of op on the interleaved topology with
// the given collective mode forced and returns the number of packets the
// TCP backbone carried. Subtracting a 0-op run isolates the per-operation
// cost exactly (the simulation is deterministic).
func wanPackets(t *testing.T, mode mpi.CollMode, nOps int,
	op func(rank int, comm *mpi.Comm) error) uint64 {
	t.Helper()
	sess, err := Build(interleavedTwoCluster())
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		for i := 0; i < nOps; i++ {
			if err := op(rank, comm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess.Networks["wan"].Stats.Packets
}

// perOp measures the backbone packets one collective costs under each
// algorithm family.
func perOp(t *testing.T, op func(rank int, comm *mpi.Comm) error) (flat, hier uint64) {
	flat = wanPackets(t, mpi.CollFlat, 1, op) - wanPackets(t, mpi.CollFlat, 0, op)
	hier = wanPackets(t, mpi.CollHier, 1, op) - wanPackets(t, mpi.CollHier, 0, op)
	return flat, hier
}

// TestHierBcastCrossesBackboneOnce: with 2 clusters, the two-level Bcast
// sends exactly one (eager, header+body aggregated) message across the
// slow link; the flat binomial tree on the interleaved placement crosses
// it n/2 times.
func TestHierBcastCrossesBackboneOnce(t *testing.T) {
	payload := make([]byte, 64)
	bcast := func(rank int, comm *mpi.Comm) error {
		return comm.Bcast(payload, len(payload), mpi.Byte, 0)
	}
	flat, hier := perOp(t, bcast)
	t.Logf("bcast backbone packets: flat=%d hier=%d", flat, hier)
	if hier != 1 {
		t.Errorf("hierarchical Bcast crossed the backbone %d times, want exactly 1 (leader-to-leader)", hier)
	}
	if flat < 4 {
		t.Errorf("flat Bcast crossed the backbone only %d times; expected >= n/2 = 4 on interleaved placement", flat)
	}
}

// TestHierAllreduceCrossesBackboneOncePerDirection: the two-level
// Allreduce ships one reduced vector per cluster inbound and one result
// vector outbound — exactly 2 backbone messages for 2 clusters.
func TestHierAllreduceCrossesBackboneOncePerDirection(t *testing.T) {
	allreduce := func(rank int, comm *mpi.Comm) error {
		out := make([]byte, 8)
		return comm.Allreduce(mpi.Int64Bytes([]int64{int64(rank)}), out, 1, mpi.Int64, mpi.OpSum)
	}
	flat, hier := perOp(t, allreduce)
	t.Logf("allreduce backbone packets: flat=%d hier=%d", flat, hier)
	if hier != 2 {
		t.Errorf("hierarchical Allreduce crossed the backbone %d times, want exactly 2 (once per direction)", hier)
	}
	if flat <= hier {
		t.Errorf("flat Allreduce (%d crossings) should cost more than hierarchical (%d)", flat, hier)
	}
}

// TestHierBarrierGatherAllgatherBackbone: the remaining two-level
// collectives stay O(#clusters) on the backbone while their flat
// counterparts scale with n.
func TestHierBarrierGatherAllgatherBackbone(t *testing.T) {
	cases := []struct {
		name    string
		op      func(rank int, comm *mpi.Comm) error
		hierMax uint64 // O(#clusters) bound: a small constant for 2 clusters
	}{
		{"barrier", func(rank int, comm *mpi.Comm) error {
			return comm.Barrier()
		}, 2},
		{"gather", func(rank int, comm *mpi.Comm) error {
			buf := make([]byte, 8*8)
			return comm.Gather(mpi.Int64Bytes([]int64{int64(rank)}), buf, 1, mpi.Int64, 0)
		}, 1},
		{"allgather", func(rank int, comm *mpi.Comm) error {
			buf := make([]byte, 8*8)
			return comm.Allgather(mpi.Int64Bytes([]int64{int64(rank)}), buf, 1, mpi.Int64)
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flat, hier := perOp(t, tc.op)
			t.Logf("%s backbone packets: flat=%d hier=%d", tc.name, flat, hier)
			if hier > tc.hierMax {
				t.Errorf("hierarchical %s crossed the backbone %d times, want <= %d", tc.name, hier, tc.hierMax)
			}
			if flat <= hier {
				t.Errorf("flat %s (%d crossings) should cost more than hierarchical (%d)", tc.name, flat, hier)
			}
		})
	}
}

// TestHierAlltoallBackbone: the two-level Alltoall bundles all
// cross-cluster blocks through the leaders, so a 2-cluster backbone
// carries exactly one message per directed leader pair — O(clusters) —
// while the flat pairwise rotation on interleaved placement crosses it
// once per cross-cluster (src, dst) pair, O(n^2).
func TestHierAlltoallBackbone(t *testing.T) {
	alltoall := func(rank int, comm *mpi.Comm) error {
		n := 8
		send := make([]byte, 8*n)
		for i := range send {
			send[i] = byte(rank + i)
		}
		recv := make([]byte, 8*n)
		return comm.Alltoall(send, recv, 1, mpi.Int64)
	}
	flat, hier := perOp(t, alltoall)
	t.Logf("alltoall backbone packets: flat=%d hier=%d", flat, hier)
	if hier != 2 {
		t.Errorf("hierarchical Alltoall crossed the backbone %d times, want exactly 2 (one per directed leader pair)", hier)
	}
	if flat < 8 {
		t.Errorf("flat Alltoall crossed the backbone only %d times; expected >= n = 8 on interleaved placement", flat)
	}
}

// TestHierFasterOnBackbone: fewer slow-link crossings must translate into
// less virtual time where the flat algorithm serializes them. The flat
// ring Allgather on interleaved placement crosses the backbone on every
// one of its n-1 sequential steps; the two-level version pays 2 crossings
// total, so it must win by a wide margin.
func TestHierFasterOnBackbone(t *testing.T) {
	const blockBytes = 64
	elapsed := func(mode mpi.CollMode) float64 {
		sess, err := Build(interleavedTwoCluster())
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range sess.Ranks {
			rk.MPI.SetCollMode(mode)
		}
		var us float64
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			mine := make([]byte, blockBytes)
			out := make([]byte, blockBytes*comm.Size())
			start := sess.S.Now()
			for i := 0; i < 5; i++ {
				if err := comm.Allgather(mine, out, blockBytes, mpi.Byte); err != nil {
					return err
				}
			}
			if rank == 0 {
				us = sess.S.Now().Sub(start).Micros() / 5
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return us
	}
	flatUS, hierUS := elapsed(mpi.CollFlat), elapsed(mpi.CollHier)
	t.Logf("allgather(64B blocks) virtual time: flat=%.1fus hier=%.1fus", flatUS, hierUS)
	if hierUS >= flatUS/2 {
		t.Errorf("hierarchical Allgather (%.1f us) should be at least 2x faster than flat (%.1f us) on the heterogeneous topology", hierUS, flatUS)
	}
}
