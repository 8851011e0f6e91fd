package cluster

// Session-level tests of the observability wiring: the golden-trace pin
// (the virtual-time event stream of a small 2-cluster Bcast is identical
// across runs — tracing inherits the simulator's bit-determinism) and the
// Chrome export's track/tag structure the acceptance criteria name.

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
)

// twoClusterTopo: two SCI islands of two nodes bridged by one TCP link
// whose endpoints (a1, b0) are the gateways; forwarding on, so a 256K
// Bcast from rank 0 crosses the bridge as relayed rendez-vous segments.
func twoClusterTopo(tr *trace.Tracer) Topology {
	return Topology{
		Nodes: []NodeSpec{
			{Name: "a0", Procs: 1}, {Name: "a1", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"b0", "b1"}},
			{Name: "gwAB", Protocol: "tcp", Nodes: []string{"a1", "b0"}},
		},
		Forwarding: true,
		Trace:      tr,
	}
}

func runTracedBcast(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.New(nil)
	const payload = 256 << 10
	_, err := Launch(twoClusterTopo(tr), func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, payload)
		if rank == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		return comm.Bcast(buf, payload, mpi.Byte, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func renderEvents(tr *trace.Tracer) string {
	var b strings.Builder
	for _, ev := range tr.Events() {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenTraceTwoClusterBcast: two runs of the same Bcast produce
// byte-identical event streams, and the stream contains the lifecycle the
// tracer exists to expose — rendez-vous segments tagged with rail/hop,
// gateway relay hops, schedule rounds.
func TestGoldenTraceTwoClusterBcast(t *testing.T) {
	tr := runTracedBcast(t)
	s1 := renderEvents(tr)
	s2 := renderEvents(runTracedBcast(t))
	if s1 != s2 {
		a, b := strings.Split(s1, "\n"), strings.Split(s2, "\n")
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				t.Fatalf("event %d diverged across runs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d lines", len(a), len(b))
	}
	if s1 == "" {
		t.Fatal("traced Bcast recorded no events")
	}
	// A segmented rendez-vous body over the bridge: a rndv.body span past
	// offset 0, tagged with its rail's hop budget.
	if !slices.ContainsFunc(tr.Events(), func(ev trace.Event) bool {
		return ev.Name == "rndv.body" && ev.Args.Val > 0 && ev.Args.Hop > 1
	}) {
		t.Error("event stream has no rndv.body segment at a non-zero offset over the bridge")
	}
	for _, want := range []string{
		"rail=",      // rail/hop tags
		"relay.hop",  // the gateway forwarded it
		"sched.",     // collective schedule rounds
		"eager.send", // control/small traffic stayed eager
	} {
		if !strings.Contains(s1, want) {
			t.Errorf("event stream missing %q", want)
		}
	}
	// Both devices' ranks are wired by one loop, tracer included: a 64 B
	// Bcast over one TCP network records the same schedule spans on ch_p4
	// as on ch_mad.
	sched := map[string]int{}
	for _, device := range []string{"ch_mad", "ch_p4"} {
		tr := trace.New(nil)
		topo := TwoNodes("tcp")
		topo.Device, topo.Trace = device, tr
		if _, err := Launch(topo, func(rank int, comm *mpi.Comm) error {
			return comm.Bcast(make([]byte, 64), 64, mpi.Byte, 0)
		}); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.Events() {
			if strings.HasPrefix(ev.Name, "sched.") {
				sched[device]++
			}
		}
	}
	if sched["ch_mad"] == 0 || sched["ch_p4"] != sched["ch_mad"] {
		t.Errorf("sched.* events of a traced 64 B Bcast per device: %v, want the same non-zero count", sched)
	}
}

// runTracedMultiBcast runs a 256K Bcast with the multi-leader two-level
// schedule forced on the bridged ring-of-three (every island fronts two
// gateways, so each cluster's leader set has two members and the payload
// is sharded across both bridges), with a tracer installed.
func runTracedMultiBcast(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.New(nil)
	topo := ringClusterTopo([]int{3, 3, 3})
	topo.Trace = tr
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHierMulti)
	}
	const payload = 256 << 10
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, payload)
		if rank == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		return comm.Bcast(buf, payload, mpi.Byte, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenTraceMultiLeaderBcast extends the golden-trace pin to the
// multi-leader schedules: two runs are byte-identical, the schedule
// rounds carry the co-leader and gateway tags the multi-leader compilers
// attach, and the stream names more than one gateway — the shards
// visibly travel through distinct bridges instead of one funnel.
func TestGoldenTraceMultiLeaderBcast(t *testing.T) {
	s1 := renderEvents(runTracedMultiBcast(t))
	s2 := renderEvents(runTracedMultiBcast(t))
	if s1 != s2 {
		a, b := strings.Split(s1, "\n"), strings.Split(s2, "\n")
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				t.Fatalf("event %d diverged across runs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d lines", len(a), len(b))
	}
	for _, want := range []string{"sched.", "leader=", "gw="} {
		if !strings.Contains(s1, want) {
			t.Errorf("event stream missing %q", want)
		}
	}
	gws := map[string]bool{}
	for _, line := range strings.Split(s1, "\n") {
		if i := strings.Index(line, "gw="); i >= 0 {
			gws[strings.Fields(line[i:])[0]] = true
		}
	}
	if len(gws) < 2 {
		t.Errorf("multi-leader Bcast trace names %d gateway(s), want >= 2: %v", len(gws), gws)
	}
}

// TestChromeExportTracks: the Perfetto export names one track per rank
// plus the per-network and session-control tracks, and is valid JSON.
func TestChromeExportTracks(t *testing.T) {
	tr := runTracedBcast(t)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("Chrome export is not valid JSON:\n%.400s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`"rank0(a0)"`, `"rank1(a1)"`, `"rank2(b0)"`, `"rank3(b1)"`,
		`"net:gwAB"`, `"session"`,
		`"rail":`, `"hop":`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome export missing %s", want)
		}
	}
}

// TestRegistryFeedsRelayStats: the always-on registry supplies the
// trunk-wait column without any tracer attached (nil Topology.Trace).
func TestRegistryFeedsRelayStats(t *testing.T) {
	topo := twoClusterTopo(nil)
	// A capped backbone makes the shared-trunk arbiter real: relayed
	// segments must queue for the bridge and accrue trunk wait.
	p, ok := netsim.ByProtocol(topo.Networks[2].Protocol)
	if !ok {
		t.Fatal("tcp preset missing")
	}
	p.NetworkBandwidth = p.Bandwidth / 4
	topo.Networks[2].Params = &p
	// A simultaneous relayed exchange a0<->b1 puts both directed pipes of
	// the bridge (a1->b0 and b0->a1) on the one trunk at once: whichever
	// direction injects second queues behind the other and accrues wait.
	const n = 256 << 10
	sess, err := Launch(topo, func(rank int, comm *mpi.Comm) error {
		peer := map[int]int{0: 3, 3: 0}[rank]
		if rank != 0 && rank != 3 {
			return nil
		}
		buf := make([]byte, n)
		got := make([]byte, n)
		_, err := comm.Sendrecv(buf, n, mpi.Byte, peer, 7, got, n, mpi.Byte, peer, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer != nil {
		t.Fatal("session grew a tracer without one being installed")
	}
	if sess.Metrics == nil {
		t.Fatal("session has no metrics registry")
	}
	rows := sess.RelayStats()
	if len(rows) == 0 {
		t.Fatal("no relay rows on a forwarded Bcast")
	}
	var waited bool
	for _, r := range rows {
		if r.TrunkWait > 0 {
			waited = true
		}
	}
	if !waited {
		t.Errorf("no gateway accrued trunk wait on a halved backbone: %+v", rows)
	}
}
