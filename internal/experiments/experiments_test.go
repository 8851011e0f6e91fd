package experiments

// These tests assert the *shape* claims of the paper's evaluation — who
// wins, by roughly what factor, where crossovers fall — on the regenerated
// data. Absolute calibration is asserted in the madeleine (Table 1) and
// core (Table 2) packages.

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/stats"
)

// suite is the complete experiment suite, run once per test binary — the
// same path as `cmd/experiments -exp all` — and shared by every test that
// only needs to look at an experiment's output, so `go test` pays for each
// heavy experiment once here plus at most one deliberate re-run (the
// determinism and tracing comparisons).
var suite struct {
	once    sync.Once
	results []*Result
	err     error
}

// allOnce returns the shared suite results, running All on first use.
func allOnce(t *testing.T) []*Result {
	t.Helper()
	suite.once.Do(func() { suite.results, suite.err = All() })
	if suite.err != nil {
		t.Fatal(suite.err)
	}
	return suite.results
}

// shared returns one experiment's result from the shared suite run.
func shared(t *testing.T, id string) *Result {
	t.Helper()
	for _, r := range allOnce(t) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("suite has no experiment %q", id)
	return nil
}

// sameText fails the test, naming each diverging line, unless two
// renderings of one experiment are byte-identical.
func sameText(t *testing.T, nameA, a, nameB, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			t.Errorf("line %d diverged:\n  %s: %s\n  %s: %s", i+1, nameA, x, nameB, y)
		}
	}
	if !t.Failed() {
		t.Error("texts differ but no line diverged (trailing whitespace?)")
	}
}

func get(t *testing.T, s *stats.Series, size int) stats.Point {
	t.Helper()
	p, ok := s.At(size)
	if !ok {
		t.Fatalf("series %q has no point at %d", s.Name, size)
	}
	return p
}

func byName(t *testing.T, series []*stats.Series, name string) *stats.Series {
	t.Helper()
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing", name)
	return nil
}

func TestFig6Shape(t *testing.T) {
	a := shared(t, "fig6a")
	chmad, chp4 := byName(t, a.Series, "ch_mad"), byName(t, a.Series, "ch_p4")
	raw := byName(t, a.Series, "raw_Madeleine")
	// §5.2: ch_mad beats ch_p4 up to 256 B; raw is below both.
	for _, sz := range []int{1, 4, 64, 256} {
		if get(t, chmad, sz).OneWay >= get(t, chp4, sz).OneWay {
			t.Errorf("fig6a: ch_mad not faster than ch_p4 at %dB", sz)
		}
		if get(t, raw, sz).OneWay >= get(t, chmad, sz).OneWay {
			t.Errorf("fig6a: raw not below ch_mad at %dB", sz)
		}
	}

	b := shared(t, "fig6b")
	chmadB, chp4B := byName(t, b.Series, "ch_mad"), byName(t, b.Series, "ch_p4")
	// §5.2: ch_p4 ceiling ~10 MB/s; ch_mad exceeds 11 MB/s at 1 MB.
	if bw := get(t, chp4B, 1<<20).BandwidthMBs(); bw > 10.3 {
		t.Errorf("fig6b: ch_p4 ceiling %.2f, want <= ~10", bw)
	}
	if bw := get(t, chmadB, 1<<20).BandwidthMBs(); bw < 11.0 {
		t.Errorf("fig6b: ch_mad 1MB bw %.2f, want > 11", bw)
	}
	// Below the 64 KB switch they are similar (within 10%).
	for _, sz := range []int{4 << 10, 16 << 10} {
		m, p := get(t, chmadB, sz).BandwidthMBs(), get(t, chp4B, sz).BandwidthMBs()
		if m < p*0.9 || m > p*1.25 {
			t.Errorf("fig6b: at %d ch_mad %.2f vs ch_p4 %.2f not 'similar'", sz, m, p)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	b := shared(t, "fig7b")
	chmad := byName(t, b.Series, "ch_mad")
	sca := byName(t, b.Series, "ScaMPI")
	smi := byName(t, b.Series, "SCI-MPICH")
	// §5.3: before 8 KB ch_mad's bandwidth is inferior or equal; beyond
	// 16 KB it outperforms both with 80 MB/s sustained.
	if get(t, chmad, 1<<10).BandwidthMBs() > get(t, sca, 1<<10).BandwidthMBs() {
		t.Error("fig7b: ch_mad should not beat ScaMPI below the switch point")
	}
	for _, sz := range []int{64 << 10, 256 << 10, 1 << 20} {
		m := get(t, chmad, sz).BandwidthMBs()
		if m <= get(t, sca, sz).BandwidthMBs() || m <= get(t, smi, sz).BandwidthMBs() {
			t.Errorf("fig7b: ch_mad does not win at %d", sz)
		}
	}
	if bw := get(t, chmad, 1<<20).BandwidthMBs(); bw < 80 {
		t.Errorf("fig7b: ch_mad sustained %.1f, want >= 80", bw)
	}

	a := shared(t, "fig7a")
	// §5.3: latency comparisons are NOT favourable to ch_mad (the two
	// native SCI ports are lower).
	chmadA := byName(t, a.Series, "ch_mad")
	for _, other := range []string{"ScaMPI", "SCI-MPICH"} {
		if get(t, chmadA, 4).OneWay <= get(t, byName(t, a.Series, other), 4).OneWay {
			t.Errorf("fig7a: ch_mad should lose the small-message latency race to %s", other)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	b := shared(t, "fig8b")
	chmad := byName(t, b.Series, "ch_mad")
	gm := byName(t, b.Series, "MPI-GM")
	pm := byName(t, b.Series, "MPICH-PM")
	// §5.4: "MPI-GM is definitely outperformed by both ch_mad and
	// MPICH-PM" for large messages.
	for _, sz := range []int{64 << 10, 1 << 20} {
		g := get(t, gm, sz).BandwidthMBs()
		if get(t, chmad, sz).BandwidthMBs() <= g || get(t, pm, sz).BandwidthMBs() <= g {
			t.Errorf("fig8b: MPI-GM not outperformed at %d", sz)
		}
	}
	// §5.4: PM takes the advantage below 4 KB and above 256 KB;
	// in between they are roughly the same (within 20%).
	if get(t, pm, 1<<10).BandwidthMBs() <= get(t, chmad, 1<<10).BandwidthMBs() {
		t.Error("fig8b: MPICH-PM should lead below 4K")
	}
	m, p := get(t, chmad, 64<<10).BandwidthMBs(), get(t, pm, 64<<10).BandwidthMBs()
	if m < p*0.8 || m > p*1.25 {
		t.Errorf("fig8b: mid-range not 'roughly the same': ch_mad %.1f vs PM %.1f", m, p)
	}

	a := shared(t, "fig8a")
	chmadA, gmA := byName(t, a.Series, "ch_mad"), byName(t, a.Series, "MPI-GM")
	// §5.4: ch_mad beats MPI-GM below 512 B, loses beyond.
	if get(t, chmadA, 64).OneWay >= get(t, gmA, 64).OneWay {
		t.Error("fig8a: ch_mad should beat MPI-GM at 64B")
	}
	if get(t, chmadA, 1024).OneWay <= get(t, gmA, 1024).OneWay {
		t.Error("fig8a: MPI-GM should beat ch_mad at 1KB")
	}
}

func TestFig9Shape(t *testing.T) {
	a := shared(t, "fig9a")
	alone := byName(t, a.Series, "SCI_thread_only")
	both := byName(t, a.Series, "SCI_thread_+_TCP_thread")
	// §5.5: a measurable but *limited* gap from the extra TCP poller.
	for _, sz := range []int{1, 64, 1024} {
		d := get(t, both, sz).OneWay - get(t, alone, sz).OneWay
		if d <= 0 {
			t.Errorf("fig9a: no overhead at %dB", sz)
		}
		if d.Micros() > 15 {
			t.Errorf("fig9a: gap %.1fus at %dB not 'limited'", d.Micros(), sz)
		}
	}

	b := shared(t, "fig9b")
	aloneB := byName(t, b.Series, "SCI_thread_only")
	bothB := byName(t, b.Series, "SCI_thread_+_TCP_thread")
	// Large messages converge: within 2% at 1 MB.
	x, y := get(t, aloneB, 1<<20).BandwidthMBs(), get(t, bothB, 1<<20).BandwidthMBs()
	if y < x*0.98 {
		t.Errorf("fig9b: 1MB bandwidth did not converge: %.1f vs %.1f", x, y)
	}
}

func TestAblations(t *testing.T) {
	sw := shared(t, "ablation-switch")
	// At 64 KB messages, a 64K switch point (pure eager) must lose to the
	// 8 KB election (zero-copy rendez-vous).
	sp8 := byName(t, sw.Series, "switch=8K")
	sp64 := byName(t, sw.Series, "switch=64K")
	if get(t, sp8, 64<<10).BandwidthMBs() <= get(t, sp64, 64<<10).BandwidthMBs() {
		t.Error("ablation X1: 8K election should beat pure eager at 64KB")
	}

	split := shared(t, "ablation-split")
	s := byName(t, split.Series, "header/body split")
	m := byName(t, split.Series, "monolithic buffer")
	// §4.2.2: the monolithic padded buffer wastes wire time on every
	// eager message ("a lot of null data will be sent").
	for _, sz := range []int{64, 1 << 10} {
		if get(t, m, sz).OneWay <= get(t, s, sz).OneWay {
			t.Errorf("ablation X2: monolithic should be slower at %dB", sz)
		}
	}
}

func TestForwardingExperiment(t *testing.T) {
	r := shared(t, "forwarding")
	direct := byName(t, r.Series, "direct SCI")
	fwd := byName(t, r.Series, "SCI->gw->Myrinet")
	// Store-and-forward costs roughly a second network traversal.
	d, f := get(t, direct, 4).OneWay, get(t, fwd, 4).OneWay
	if f <= d {
		t.Error("forwarding should cost more than a direct link")
	}
	if f > 4*d {
		t.Errorf("forwarding overhead implausibly large: %v vs %v", f, d)
	}
}

func TestAllAndByID(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	r, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "Table 1") {
		t.Fatalf("text: %s", r.Text)
	}
}

// TestAllRegeneratesEveryArtifact checks the complete experiment suite:
// each artifact rendered non-trivially, in paper order, and carries the id
// the registry files it under — All and ByID read that one table, so an
// artifact whose id matches its registry row is reachable through ByID.
func TestAllRegeneratesEveryArtifact(t *testing.T) {
	results := allOnce(t)
	wantIDs := []string{
		"table1", "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b",
		"fig9a", "fig9b", "table2", "ablation-switch", "ablation-split",
		"forwarding", "hcoll", "gateway", "adaptive", "heteromux",
		"multileader", "scale",
	}
	if len(results) != len(wantIDs) {
		t.Fatalf("All produced %d artifacts, want %d", len(results), len(wantIDs))
	}
	for i, r := range results {
		if r.ID != wantIDs[i] {
			t.Errorf("artifact %d is %q, want %q", i, r.ID, wantIDs[i])
		}
		if r.ID != registry[i].id {
			t.Errorf("artifact %d calls itself %q but is registered as %q", i, r.ID, registry[i].id)
		}
		if len(r.Text) < 40 {
			t.Errorf("%s rendered suspiciously short output", r.ID)
		}
	}
}

// A session that is wired but never run (a Build-error path, a planning
// tool) must cost no goroutine: the 1024-rank machine has ~3 polling
// threads per rank, and each used to park one from Build on.
func TestBuildWithoutRunStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	sess, err := cluster.Build(ScaleTopo(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	// More, not different: a goroutine of an earlier test's session may
	// still be on its way out and leave the count lower.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Build of %d ranks, %d before", n, len(sess.Ranks), before)
	}
}
