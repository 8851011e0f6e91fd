package cluster

// Tests of the adaptive multi-path transport at the session level: rail
// installation on the bridged triangle, the closed replan loop (observed
// relay congestion steers the plan around a hot gateway and a drained
// queue steers it back), and striping through a real session.

import (
	"slices"
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// bridgedTriangle is bridgedTriple plus the triangle's third side: a
// direct TCP bridge between islands A and C (gateway nodes a1 and c0).
// Every A<->C pair now has two edge-disjoint rails — the one-bridge
// gwCA path and the two-bridge detour through island B.
func bridgedTriangle() Topology {
	topo := bridgedTriple()
	topo.Networks = append(topo.Networks, NetworkSpec{
		Name: "gwCA", Protocol: "tcp", Nodes: []string{"a1", "c0"},
	})
	return topo
}

// relaysThrough reports whether the planned src->dst path relays through
// the given rank (interior hop).
func relaysThrough(t *testing.T, sess *Session, src, dst, rank int) bool {
	t.Helper()
	hops, ok := sess.RoutePlan().Path(src, dst)
	if !ok {
		t.Fatalf("no path %d->%d", src, dst)
	}
	for _, h := range hops[:len(hops)-1] {
		if h.Rank == rank {
			return true
		}
	}
	return false
}

// TestTriangleRailsInstalled: on the bridged triangle the wiring installs
// two edge-disjoint rails between the far corners (primary over the
// gwCA bridge, alternate through island B), tags their costs and
// segments for the striper, and bounds every gateway with the default relay window.
func TestTriangleRailsInstalled(t *testing.T) {
	sess, err := Build(bridgedTriangle())
	if err != nil {
		t.Fatal(err)
	}
	rails := sess.Ranks[0].ChMad.Rails(8)
	if len(rails) != 2 {
		t.Fatalf("rails 0->8: %d, want 2", len(rails))
	}
	if rails[0].Hops != 3 || rails[1].Hops != 5 {
		t.Fatalf("rail hops = %d,%d, want 3,5", rails[0].Hops, rails[1].Hops)
	}
	if rails[0].Cost <= 0 || rails[1].Cost <= rails[0].Cost {
		t.Fatalf("rail costs = %g,%g, want ascending positive", rails[0].Cost, rails[1].Cost)
	}
	if rails[0].SegBytes <= 0 || rails[1].SegBytes <= 0 {
		t.Fatalf("rail segments = %d,%d", rails[0].SegBytes, rails[1].SegBytes)
	}
	// The two ends of the gwCA bridge (a1, c0) are a direct pair with an
	// alternate through island B: its one-hop rail stripes, so it carries
	// the segment a lone direct rail goes without.
	if rails := sess.Ranks[1].ChMad.Rails(6); len(rails) != 2 || rails[0].Hops != 1 || rails[0].SegBytes <= 0 {
		t.Fatalf("rails 1->6 = %+v, want a direct rail with a stripe segment and an alternate", rails)
	}
	for _, rk := range sess.Ranks {
		if rk.ChMad.RelayWindow != DefaultRelayWindow {
			t.Fatalf("rank %d relay window = %d, want %d", rk.Rank, rk.ChMad.RelayWindow, DefaultRelayWindow)
		}
	}
	// The chain topology (no third side) keeps a single rail.
	chain, err := Build(bridgedTriple())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(chain.Ranks[0].ChMad.Rails(8)); n != 1 {
		t.Fatalf("chain rails 0->8: %d, want 1", n)
	}
	// MaxPaths: 1 forces the single-path planner on the triangle too.
	topo := bridgedTriangle()
	topo.MaxPaths = 1
	single, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(single.Ranks[0].ChMad.Rails(8)); n != 1 {
		t.Fatalf("MaxPaths=1 rails 0->8: %d, want 1", n)
	}
}

// TestStripedTransferThroughSession: a large A->C transfer on the
// triangle splits across both bridges (the gwCA gateway a1 and the gwAB
// gateway a2 both relay body bytes) and arrives intact.
func TestStripedTransferThroughSession(t *testing.T) {
	sess, err := Build(bridgedTriangle())
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		switch rank {
		case 0:
			return comm.Send(make([]byte, size), size, mpi.Byte, 8, 3)
		case 8:
			_, err := comm.Recv(make([]byte, size), size, mpi.Byte, 0, 3)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := sess.Ranks[1].ChMad, sess.Ranks[2].ChMad
	if a1.RelayBytes == 0 || a2.RelayBytes == 0 {
		t.Fatalf("stripe used one rail: gwCA=%d gwAB=%d bytes", a1.RelayBytes, a2.RelayBytes)
	}
	// The one-bridge rail is cheaper and must carry the larger share.
	if a1.RelayBytes <= a2.RelayBytes {
		t.Errorf("cost-weighted stripe: gwCA carried %d <= gwAB %d", a1.RelayBytes, a2.RelayBytes)
	}
	for _, rs := range sess.RelayStats() {
		if rs.Window > 0 && rs.QueuePeak > rs.Window {
			t.Errorf("%s queue peak %d exceeds window %d", rs.Name, rs.QueuePeak, rs.Window)
		}
	}
}

// TestReplanClosedLoop: relay load observed through the gwCA gateways
// makes a Replan route the far-corner pair through island B; a second
// Replan after the queues drained restores the one-bridge primary.
func TestReplanClosedLoop(t *testing.T) {
	sess, err := Build(bridgedTriangle())
	if err != nil {
		t.Fatal(err)
	}
	// Isolate re-routing: a striped load would spread itself across both
	// rails and halve the queue pressure the replan is supposed to see.
	for _, rk := range sess.Ranks {
		rk.ChMad.RelayStriping = false
	}
	if relaysThrough(t, sess, 0, 8, 4) {
		t.Fatal("baseline 0->8 should use the gwCA rail, not island B")
	}
	if !relaysThrough(t, sess, 0, 8, 1) {
		t.Fatal("baseline 0->8 should relay through a1 (gwCA)")
	}
	const size = 512 << 10
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		switch rank {
		case 2:
			// Load the gwCA gateways: a2 -> c1 relays through a1 and c0.
			return comm.Send(make([]byte, size), size, mpi.Byte, 7, 5)
		case 7:
			_, err := comm.Recv(make([]byte, size), size, mpi.Byte, 2, 5)
			return err
		case 0:
			// Replan after the load's queue pressure has been observed.
			sess.Ranks[0].Proc.Sleep(500 * vtime.Millisecond)
			plan := sess.Replan()
			if plan == nil {
				t.Error("Replan returned nil on a ch_mad session")
				return nil
			}
			if plan.CongestionOf(1) <= 0 {
				t.Error("a1 relayed a 512K body but has no congestion term")
			}
			if relaysThrough(t, sess, 0, 8, 1) || relaysThrough(t, sess, 0, 8, 6) {
				t.Error("adaptive plan still routes 0->8 through the hot gwCA gateways")
			}
			// The device wiring followed the plan: the first hop toward
			// rank 8 is now a2, the island-B rail.
			if rt, ok := sess.Ranks[0].ChMad.RouteTo(8); !ok || rt.NextNode != "a2" {
				t.Errorf("route 0->8 next hop = %+v, want via a2", rt)
			}
			// Queues drained and consumed: the next replan restores the
			// cheap one-bridge primary.
			sess.Ranks[0].Proc.Sleep(500 * vtime.Millisecond)
			sess.Replan()
			if !relaysThrough(t, sess, 0, 8, 1) {
				t.Error("drained replan did not restore the gwCA primary")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplanReelectsLeaderSets: a Replan that moves a cluster's primary
// leader re-elects the cluster's leader set with it. On the triangle, a
// 64 KiB flood a2 → c1 observed at 2 ms moves cluster C's primary from c0
// (rank 6) to c1 (rank 7). Afterwards every co-leader must front the
// gateway it is tagged with, and every cluster pair must share a bridge both sets front: its
// multi-leader couples are direct, no device relays them.
func TestReplanReelectsLeaderSets(t *testing.T) {
	const flood = 64 << 10
	sess, err := Build(bridgedTriangle())
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.ChMad.RelayStriping = false
	}
	h := sess.Hierarchy()
	before := slices.Clone(h.Leaders)
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		switch rank {
		case 2:
			err = comm.Send(make([]byte, flood), flood, mpi.Byte, 7, 5)
		case 7:
			_, err = comm.Recv(make([]byte, flood), flood, mpi.Byte, 2, 5)
		case 0:
			sess.Ranks[0].Proc.Sleep(2 * vtime.Millisecond)
			sess.Replan()
			return nil
		}
		// Stay clear of the Finalize barrier until the re-plan is over.
		sess.Ranks[rank].Proc.Sleep(100 * vtime.Millisecond)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := h.ClusterOf[7]; before[c][0].Rank != 6 || h.Leaders[c][0].Rank != 7 {
		t.Fatalf("cluster C's leader went from %d to %d across the re-plan, want 6 to 7", before[c][0].Rank, h.Leaders[c][0].Rank)
	}
	for c, set := range h.Leaders {
		for _, l := range set {
			if l.Gateway != "" && !sess.attached(l.Rank, l.Gateway) {
				t.Errorf("cluster %d: co-leader %d is tagged with gateway %s it does not front", c, l.Rank, l.Gateway)
			}
		}
		for d := c + 1; d < len(h.Leaders); d++ {
			shared := slices.ContainsFunc(set, func(l mpi.Leader) bool {
				return l.Gateway != "" && slices.ContainsFunc(h.Leaders[d], func(m mpi.Leader) bool { return m.Gateway == l.Gateway })
			})
			if !shared {
				t.Errorf("clusters %d and %d (leader sets %v, %v) share no bridge: their couples are relayed",
					c, d, set, h.Leaders[d])
			}
		}
	}
}
