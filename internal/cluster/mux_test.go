package cluster

// Tests of the per-link device mux: link classification, the planner
// metadata on fallback rails, the per-path backbone segment bound, and the
// headline safety property — mux-routed communication is byte-identical to
// the uniform single-protocol configuration; only the timing may differ.

import (
	"bytes"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
)

// muxTopo is a small heterogeneous cluster exercising every device
// class: a dual-proc SCI island, a dual-proc Myrinet island, a shared
// TCP backbone. uniform selects the single-protocol ablation.
func muxTopo(uniform bool) Topology {
	return Topology{
		Nodes: []NodeSpec{
			{Name: "s0", Procs: 2}, {Name: "s1", Procs: 1},
			{Name: "m0", Procs: 2}, {Name: "m1", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"s0", "s1"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"m0", "m1"}},
			{Name: "eth", Protocol: "tcp", Nodes: []string{"s0", "s1", "m0", "m1"}},
		},
		Uniform: uniform,
	}
}

// TestLinkClassification pins the discovery side of the mux: rank 0 (on
// the SCI island's dual-proc node) sees itself as self-class, its node
// peer as smp-class, the island as SAN-class and the Myrinet island as
// wan-class (reached across the TCP backbone), with each routed link
// carrying its class's native switch point.
func TestLinkClassification(t *testing.T) {
	sess, err := Build(muxTopo(false))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"self", "smp", "san", "wan", "wan", "wan"}
	for dst, class := range want {
		if got := sess.LinkClassOf(0, dst); got != class {
			t.Errorf("LinkClassOf(0, %d) = %q, want %q", dst, got, class)
		}
	}
	if got := sess.Ranks[0].ChMad.SwitchPointTo(2); got != 8<<10 {
		t.Errorf("SAN link switch point = %d, want SCI's 8K", got)
	}
	if got := sess.Ranks[0].ChMad.SwitchPointTo(3); got != 64<<10 {
		t.Errorf("wan link switch point = %d, want TCP's 64K", got)
	}

	// The uniform ablation wires no smp links and elects one threshold.
	uni, err := Build(muxTopo(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := uni.LinkClassOf(0, 1); got != "san" {
		t.Errorf("uniform intra-node class = %q, want san (ch_mad over SCI)", got)
	}
	if _, ok := uni.Ranks[0].ChMad.RouteTo(1); !ok {
		t.Error("uniform session has no ch_mad route to the node peer")
	}
	if got := uni.Ranks[0].ChMad.SwitchPointTo(3); got != 8<<10 {
		t.Errorf("uniform wan link switch point = %d, want the global SCI election 8K", got)
	}
}

// TestRailsForFallbackMetadata: when the planner prefers a relayed path
// but the session has forwarding off, the direct-edge fallback rail must
// carry real planner metadata — a zero cost would make stripe weighting
// and re-plan ranking treat the slow direct edge as free.
func TestRailsForFallbackMetadata(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{
			{Name: "n0", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "n1", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"n0", "gw"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"gw", "n1"}},
			{Name: "slow", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
		},
		// Forwarding off: the two-hop SCI path the planner prefers is
		// unusable, so rank 0 -> 2 must fall back to the direct TCP edge.
	}
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	dev := sess.Ranks[0].ChMad
	rt, ok := dev.RouteTo(2)
	if !ok {
		t.Fatal("no fallback route from rank 0 to rank 2")
	}
	if name, _, _ := dev.RouteNet(2); name != "slow" {
		t.Fatalf("fallback rides %q, want the direct tcp edge", name)
	}
	if rt.Hops != 1 {
		t.Errorf("fallback Hops = %d, want 1", rt.Hops)
	}
	if rt.Cost <= 0 || rt.BottleneckCost <= 0 {
		t.Errorf("fallback rail missing planner metadata: Cost=%g BottleneckCost=%g",
			rt.Cost, rt.BottleneckCost)
	}
	if rt.SegBytes != 0 {
		// A single-hop rail without alternates never pipelines through a
		// relay; railsFor leaves its segment 0, fallback included.
		t.Errorf("fallback SegBytes = %d, want 0 for a direct rail", rt.SegBytes)
	}
	if rt.SwitchBytes != 64<<10 {
		t.Errorf("fallback SwitchBytes = %d, want TCP's native 64K", rt.SwitchBytes)
	}
	if rt.Class != "wan" {
		t.Errorf("fallback Class = %q, want wan", rt.Class)
	}
}

// TestRoutedBackboneSegmentBoundedByPathSwitch: on a forwarded chain of
// mixed islands (SCI 8K, BIP 7K, TCP 64K) the recalibrated backbone's
// pipeline segment must respect the smallest switch point along the
// worst routed leader path — a segment above BIP's 7K would trip a
// rendez-vous round-trip on the Myrinet hop of every broadcast segment.
func TestRoutedBackboneSegmentBoundedByPathSwitch(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{
			{Name: "a0", Procs: 1}, {Name: "a1", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 1},
			{Name: "c0", Procs: 1}, {Name: "c1", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1"}},
			{Name: "myriB", Protocol: "bip", Nodes: []string{"b0", "b1"}},
			{Name: "sciC", Protocol: "sisci", Nodes: []string{"c0", "c1"}},
			{Name: "bridgeAB", Protocol: "tcp", Nodes: []string{"a1", "b0"}},
			{Name: "bridgeBC", Protocol: "tcp", Nodes: []string{"b1", "c0"}},
		},
		Forwarding: true,
	}
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy()
	if h.NumClusters() != 3 {
		t.Fatalf("discovered %d clusters, want 3 (%v)", h.NumClusters(), h.ClusterNames)
	}
	if !strings.HasPrefix(h.Inter.Net, "routed(") {
		t.Fatalf("backbone %q was not recalibrated from a routed leader path", h.Inter.Net)
	}
	if h.Inter.SegmentBytes <= 0 || h.Inter.SegmentBytes > 7<<10 {
		t.Errorf("backbone segment %d outside (0, 7K] (BIP's switch point bounds the A-C path)",
			h.Inter.SegmentBytes)
	}
}

// TestMuxUniformEquivalence is the headline safety property: the same
// rank program produces byte-identical results under the per-link mux
// and under the uniform single-protocol transport — the mux changes
// which device carries each link and where eager flips to rendez-vous,
// never the data.
func TestMuxUniformEquivalence(t *testing.T) {
	// Sizes straddling every threshold in play: eager everywhere (64),
	// above BIP/SCI but below smp/TCP (12K), above everything (100K).
	sizes := []int{64, 12 << 10, 100 << 10}
	run := func(uniform bool) [][]byte {
		sess, err := Build(muxTopo(uniform))
		if err != nil {
			t.Fatal(err)
		}
		n := len(sess.Ranks)
		results := make([][]byte, n)
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			var rec bytes.Buffer
			for _, size := range sizes {
				// Ring: every rank forwards a rank-stamped pattern, so every
				// link class carries p2p traffic at every size.
				out := make([]byte, size)
				for i := range out {
					out[i] = byte(rank*31 + i)
				}
				in := make([]byte, size)
				next, prev := (rank+1)%n, (rank+n-1)%n
				if _, err := comm.Sendrecv(out, size, mpi.Byte, next, 7,
					in, size, mpi.Byte, prev, 7); err != nil {
					return err
				}
				rec.Write(in)

				root := make([]byte, size)
				if rank == 2 {
					copy(root, out)
				}
				if err := comm.Bcast(root, size, mpi.Byte, 2); err != nil {
					return err
				}
				rec.Write(root)

				cnt := size / 8
				vec := make([]int64, cnt)
				for i := range vec {
					vec[i] = int64(rank + i)
				}
				sum := make([]byte, 8*cnt)
				if err := comm.Allreduce(mpi.Int64Bytes(vec), sum, cnt, mpi.Int64, mpi.OpSum); err != nil {
					return err
				}
				rec.Write(sum)

				per := size / n
				send := make([]byte, per*n)
				for i := range send {
					send[i] = byte(rank ^ i)
				}
				recv := make([]byte, per*n)
				if err := comm.Alltoall(send, recv, per, mpi.Byte); err != nil {
					return err
				}
				rec.Write(recv)
			}
			results[rank] = rec.Bytes()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	mux := run(false)
	uni := run(true)
	for r := range mux {
		if len(mux[r]) == 0 {
			t.Fatalf("rank %d recorded nothing", r)
		}
		if !bytes.Equal(mux[r], uni[r]) {
			t.Errorf("rank %d: mux and uniform transcripts differ (%d vs %d bytes)",
				r, len(mux[r]), len(uni[r]))
		}
	}
}
