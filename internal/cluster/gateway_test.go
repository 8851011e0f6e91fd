package cluster

// Tests of the routing subsystem at the session level: the 3-cluster
// bridged topology of the acceptance criteria (no common network, one
// gateway node per bridge), gateway-aware leader election, gateway hop
// accounting, and autotuner persistence.

import (
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// bridgedTriple is the acceptance topology: three islands (SCI, SCI,
// Myrinet) with no network common to all, chained by two point-to-point
// TCP bridges. The bridge endpoints (a2, b1, b2, c1) are the gateway
// nodes; rank numbering makes the lowest-rank leader convention pick
// non-gateways (a0, b0, c0), so the election has something to fix.
func bridgedTriple() Topology {
	return Topology{
		Nodes: []NodeSpec{
			{Name: "a0", Procs: 1}, {Name: "a1", Procs: 1}, {Name: "a2", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 1}, {Name: "b2", Procs: 1},
			{Name: "c0", Procs: 1}, {Name: "c1", Procs: 1}, {Name: "c2", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1", "a2"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"b0", "b1", "b2"}},
			{Name: "myriC", Protocol: "bip", Nodes: []string{"c0", "c1", "c2"}},
			{Name: "gwAB", Protocol: "tcp", Nodes: []string{"a2", "b1"}},
			{Name: "gwBC", Protocol: "tcp", Nodes: []string{"b2", "c1"}},
		},
		Forwarding: true,
	}
}

// TestRoutableIffForwarding: on the bridged topology every rank pair is
// routable exactly when Forwarding is on — off, only pairs sharing a
// network have routes.
func TestRoutableIffForwarding(t *testing.T) {
	check := func(forwarding bool) {
		topo := bridgedTriple()
		topo.Forwarding = forwarding
		sess, err := Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		plan := sess.RoutePlan()
		if plan == nil {
			t.Fatal("no routing plan")
		}
		n := len(sess.Ranks)
		for r := 0; r < n; r++ {
			for dst := 0; dst < n; dst++ {
				if dst == r {
					continue
				}
				_, direct, shared := plan.DirectEdge(r, dst)
				_ = direct
				_, ok := sess.Ranks[r].ChMad.RouteTo(dst)
				want := shared || forwarding
				if ok != want {
					t.Fatalf("forwarding=%v: route %d->%d present=%v, want %v",
						forwarding, r, dst, ok, want)
				}
			}
		}
	}
	check(true)
	check(false)
}

// TestGatewayAwareLeaderElection: the elected leaders sit on the gateway
// nodes (a2, b1, c1 = ranks 2, 4, 7), and the ObliviousLeaders ablation
// restores the lowest-rank convention.
func TestGatewayAwareLeaderElection(t *testing.T) {
	sess, err := Build(bridgedTriple())
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy()
	if h.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3", h.NumClusters())
	}
	want := []int{2, 4, 7}
	if len(h.Leaders) != 3 {
		t.Fatalf("leaders = %v", h.Leaders)
	}
	for i, l := range h.Leaders {
		if l != want[i] {
			t.Fatalf("leaders = %v, want %v", h.Leaders, want)
		}
	}
	// The recalibrated backbone link reflects the worst routed leader
	// pair (a2 -> c1: two bridges plus the sciB hop).
	if h.Inter.Net != "routed(gwAB+sciB+gwBC)" {
		t.Fatalf("inter link = %q", h.Inter.Net)
	}

	topo := bridgedTriple()
	topo.ObliviousLeaders = true
	sess2, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Hierarchy().Leaders != nil {
		t.Fatalf("oblivious session elected leaders %v", sess2.Hierarchy().Leaders)
	}
}

// gatewayHops runs one two-level collective on the bridged topology and
// returns the number of gateway-relayed messages it cost (forward deltas
// around the operation, excluding setup and finalize traffic).
func gatewayHops(t *testing.T, oblivious bool, op func(rank int, comm *mpi.Comm) error) uint64 {
	t.Helper()
	topo := bridgedTriple()
	topo.ObliviousLeaders = oblivious
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHier)
	}
	forwards := func() uint64 {
		var total uint64
		for _, rk := range sess.Ranks {
			total += rk.ChMad.NForwarded
		}
		return total
	}
	var before, after uint64
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			before = forwards()
		}
		if err := op(rank, comm); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			after = forwards()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return after - before
}

// TestGatewayAwareCrossesFewerGateways: on the bridged 3-cluster
// topology, gateway-aware two-level Bcast and Allreduce relay through
// strictly fewer gateway hops than the leader-oblivious two-level forms —
// the acceptance criterion of the routing subsystem.
func TestGatewayAwareCrossesFewerGateways(t *testing.T) {
	bcast := func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, 1<<10)
		return comm.Bcast(buf, 1<<10, mpi.Byte, 0)
	}
	allreduce := func(rank int, comm *mpi.Comm) error {
		in := make([]byte, 1<<10)
		out := make([]byte, 1<<10)
		return comm.Allreduce(in, out, 1<<10, mpi.Byte, mpi.OpMax)
	}
	for _, tc := range []struct {
		name string
		op   func(rank int, comm *mpi.Comm) error
	}{{"bcast", bcast}, {"allreduce", allreduce}} {
		aware := gatewayHops(t, false, tc.op)
		oblivious := gatewayHops(t, true, tc.op)
		t.Logf("%s gateway hops: aware=%d oblivious=%d", tc.name, aware, oblivious)
		if aware >= oblivious {
			t.Errorf("%s: gateway-aware crossed %d gateway hops, oblivious %d — want strictly fewer",
				tc.name, aware, oblivious)
		}
	}
}

// TestRelayStatsAccounting: gateways report the relayed traffic through
// Session.RelayStats (messages, body bytes, queue depth).
func TestRelayStatsAccounting(t *testing.T) {
	sess, err := Build(bridgedTriple())
	if err != nil {
		t.Fatal(err)
	}
	const size = 128 << 10
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
	rs := sess.RelayStats()
	if len(rs) == 0 {
		t.Fatal("no relay stats despite multi-hop traffic")
	}
	var bytes uint64
	for _, r := range rs {
		bytes += r.Bytes
	}
	// rank0 -> rank8 crosses 4 gateways; each relays the ~128 KB body.
	if bytes < 4*size {
		t.Errorf("relayed bytes = %d, want >= %d (4 gateways x payload)", bytes, 4*size)
	}
	for _, r := range rs {
		if r.DropsNoRoute != 0 {
			t.Errorf("gateway %s dropped %d messages", r.Name, r.DropsNoRoute)
		}
		if r.Window > 0 && r.QueuePeak > r.Window {
			t.Errorf("gateway %s queue peak %d exceeds window %d", r.Name, r.QueuePeak, r.Window)
		}
	}
}

// TestTuneCachePersistence: with a TuneCache installed, the first
// autotuned session pays the sweep and stores its crossover table; a
// second session of the same shape loads it (cache hit), installs an
// identical table, and finishes in strictly less virtual time.
func TestTuneCachePersistence(t *testing.T) {
	cache := NewTuneCache()
	run := func() ([]mpi.TuneChoice, vtime.Duration) {
		topo := bridgedTriple()
		topo.Autotune = true
		topo.TuneCache = cache
		sess, err := Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		var snap []mpi.TuneChoice
		if err := sess.Run(func(rank int, comm *mpi.Comm) error {
			if rank == 0 {
				snap = sess.Ranks[0].MPI.TuneSnapshot()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return snap, vtime.Duration(sess.S.Now())
	}
	first, tFirst := run()
	if first == nil {
		t.Fatal("first session installed no tuning table")
	}
	second, tSecond := run()
	if n := len(cache.tables); n != 1 {
		t.Fatalf("cache holds %d tables after two sessions of one shape, want 1", n)
	}
	if len(first) != len(second) {
		t.Fatalf("save/load mismatch: %d vs %d rows", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("save/load row %d: %+v != %+v", i, first[i], second[i])
		}
	}
	if tSecond >= tFirst {
		t.Errorf("cached session took %v, sweep session %v — cache should skip the sweep", tSecond, tFirst)
	}
}
