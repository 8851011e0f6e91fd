package experiments

// The claims ledger: every relation the repository states about a printed
// number — the paper's reading of its figures (§5.2–5.5), the §4.2.2
// ablations, each extension's acceptance bar — and every figure the paper
// publishes in Tables 1 and 2 (§5), as one row of data, judged on the suite's
// shared All() run. all.txt pins the numbers; a row says which of them the
// argument rests on and how far each may move, on the number the table shows
// (µs, MB/s, or a GwHops_*/AdaptQ_*/RelayQ* count; a paper row reads its
// figure's own unit) at every size it names. `go test -run TestClaims -v`
// prints the scorecard; README's "Claims" table is it in markdown.

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// measure is what a row computes from its series a and b at one size.
type measure int

const (
	value  measure = iota // a
	ratio                 // a / b
	diff                  // a − b
	hidden                // 1 − a / b: the share of b that a leaves hidden
	paper                 // 100 · |a − p| / p: a's error in % against the published figure p
)

// rel is the interval a measure must lie in (an open end excludes its bound)
// and how the scorecard spells it.
type rel struct {
	lo, hi         float64
	loOpen, hiOpen bool
	text           string
}

func lt(x float64) rel { return rel{math.Inf(-1), x, true, true, fmt.Sprintf("< %.7g", x)} }
func le(x float64) rel { return rel{math.Inf(-1), x, true, false, fmt.Sprintf("<= %.7g", x)} }
func gt(x float64) rel { return rel{x, math.Inf(1), true, true, fmt.Sprintf("> %.7g", x)} }
func ge(x float64) rel { return rel{x, math.Inf(1), false, true, fmt.Sprintf(">= %.7g", x)} }

// in is [lo, hi], (lo, hi], ... as ends spells it.
func in(ends string, lo, hi float64) rel {
	return rel{lo, hi, ends[0] == '(', ends[1] == ')', fmt.Sprintf("in %c%.7g, %.7g%c", ends[0], lo, hi, ends[1])}
}

// judge returns how far v lies inside r (negative outside) and whether r holds it.
func (r rel) judge(v float64) (margin float64, ok bool) {
	ok = (v > r.lo || !r.loOpen && v == r.lo) && (v < r.hi || !r.hiOpen && v == r.hi)
	return min(v-r.lo, r.hi-v), ok
}

// claim is one row: id, source (paper § / Fig., or the PR that set the bar),
// experiment id, series a [and b], measure, sizes, and the interval.
type claim struct {
	id, src, exp, a, b string
	m                  measure
	sizes              []int
	want               rel
}

func sz(sizes ...int) []int { return sizes }

// paperRows makes one row per published figure: the simulated value lies
// within the figure's tolerance of the paper's.
func paperRows() []claim {
	var rows []claim
	for _, f := range published {
		rows = append(rows, claim{fmt.Sprintf("%s.%s@%s", f.exp, f.series, stats.SizeLabel(f.size)),
			"§5 Table " + strings.TrimPrefix(f.exp, "table"), f.exp, f.series, "", paper, sz(f.size), le(f.tolPct)})
	}
	return rows
}

// bridgeBound is the least time, in µs, the busiest directed bridge needs to
// carry its share of 1 MiB at the raw TCP bandwidth Table 1 publishes.
func bridgeBound(share float64) rel {
	want, _, _ := Published("raw_tcp", 8*netsim.MB)
	return ge(share * (1 << 20) / (want * netsim.MB) * 1e6)
}

var claims = append(paperRows(), []claim{
	// §5.2, TCP: ch_mad ahead of ch_p4 to 256 B, raw below both; ~10 vs > 11 MB/s.
	{"fig6a.chmad-beats-p4", "§5.2 Fig. 6a", "fig6a", "ch_mad", "ch_p4", diff, sz(1, 4, 64, 256), lt(0)},
	{"fig6a.raw-below-chmad", "§5.2 Fig. 6a", "fig6a", "raw_Madeleine", "ch_mad", diff, sz(1, 4, 64, 256), lt(0)},
	{"fig6b.p4-ceiling", "§5.2 Fig. 6b", "fig6b", "ch_p4", "", value, sz(1 << 20), le(10.3)},
	{"fig6b.chmad-past-11MBs", "§5.2 Fig. 6b", "fig6b", "ch_mad", "", value, sz(1 << 20), ge(11)},
	{"fig6b.alike-below-switch", "§5.2 Fig. 6b", "fig6b", "ch_mad", "ch_p4", ratio, sz(4<<10, 16<<10), in("[]", 0.9, 1.25)},
	// §5.3, SCI: behind the native ports below 8 KB and in latency, ahead past 16 KB.
	{"fig7b.not-ahead-below-8K", "§5.3 Fig. 7b", "fig7b", "ch_mad", "ScaMPI", diff, sz(1 << 10), le(0)},
	{"fig7b.beats-scampi", "§5.3 Fig. 7b", "fig7b", "ch_mad", "ScaMPI", diff, sz(64<<10, 256<<10, 1<<20), gt(0)},
	{"fig7b.beats-sci-mpich", "§5.3 Fig. 7b", "fig7b", "ch_mad", "SCI-MPICH", diff, sz(64<<10, 256<<10, 1<<20), gt(0)},
	{"fig7b.80MBs-sustained", "§5.3 Fig. 7b", "fig7b", "ch_mad", "", value, sz(1 << 20), ge(80)},
	{"fig7a.scampi-lower-latency", "§5.3 Fig. 7a", "fig7a", "ch_mad", "ScaMPI", diff, sz(4), gt(0)},
	{"fig7a.sci-mpich-lower-latency", "§5.3 Fig. 7a", "fig7a", "ch_mad", "SCI-MPICH", diff, sz(4), gt(0)},
	// §5.4, BIP: GM outperformed by both for large messages; PM ahead below 4 KB.
	{"fig8b.chmad-beats-gm", "§5.4 Fig. 8b", "fig8b", "ch_mad", "MPI-GM", diff, sz(64<<10, 1<<20), gt(0)},
	{"fig8b.pm-beats-gm", "§5.4 Fig. 8b", "fig8b", "MPICH-PM", "MPI-GM", diff, sz(64<<10, 1<<20), gt(0)},
	{"fig8b.pm-leads-below-4K", "§5.4 Fig. 8b", "fig8b", "MPICH-PM", "ch_mad", diff, sz(1 << 10), gt(0)},
	{"fig8b.pm-alike-mid-range", "§5.4 Fig. 8b", "fig8b", "ch_mad", "MPICH-PM", ratio, sz(64 << 10), in("[]", 0.8, 1.25)},
	{"fig8a.beats-gm-at-64B", "§5.4 Fig. 8a", "fig8a", "ch_mad", "MPI-GM", diff, sz(64), lt(0)},
	{"fig8a.gm-ahead-at-1K", "§5.4 Fig. 8a", "fig8a", "ch_mad", "MPI-GM", diff, sz(1 << 10), gt(0)},
	// §5.5: a second protocol's poller costs a measurable but limited gap.
	{"fig9a.poll-gap-limited", "§5.5 Fig. 9a", "fig9a", "SCI_thread_+_TCP_thread", "SCI_thread_only", diff, sz(1, 64, 1<<10), in("(]", 0, 15)},
	{"fig9b.converges-at-1M", "§5.5 Fig. 9b", "fig9b", "SCI_thread_+_TCP_thread", "SCI_thread_only", ratio, sz(1 << 20), ge(0.98)},
	// §4.2.2's two choices against their ablations; §6's gateway costs a traversal.
	{"x1.8K-switch-beats-eager", "§4.2.2 X1", "ablation-switch", "switch=8K", "switch=64K", diff, sz(64 << 10), gt(0)},
	{"x2.split-beats-monolithic", "§4.2.2 X2", "ablation-split", "monolithic buffer", "header/body split", diff, sz(64, 1<<10), gt(0)},
	{"x3.forwarding-cost", "§6 X3", "forwarding", "SCI->gw->Myrinet", "direct SCI", ratio, sz(4), in("(]", 1, 4)},
	// X4: under backbone contention the two-level and ring forms beat flat.
	{"x4.2level-allreduce-cap", "PR 3 X4", "hcoll", "Allreduce_2level_cap", "Allreduce_flat_cap", diff, sz(64<<10, 256<<10), lt(0)},
	{"x4.2level-bcast-cap", "PR 3 X4", "hcoll", "Bcast_2level_cap", "Bcast_flat_cap", diff, sz(64<<10, 256<<10), lt(0)},
	{"x4.ring2l-allreduce-cap", "PR 3 X4", "hcoll", "Allreduce_ring2l_cap", "Allreduce_flat_cap", diff, sz(64<<10, 256<<10), lt(0)},
	{"x4.ring-allreduce", "PR 3 X4", "hcoll", "Allreduce_ring", "Allreduce_flat", diff, sz(64<<10, 256<<10), lt(0)},
	// X4: two leaders that swap their partials cross the backbone once, the
	// flat ring n−1 times each way (a reduce up and a broadcast back, twice).
	{"x4.2level-allreduce-beats-ring", "PR 27 X4", "hcoll", "Allreduce_2level", "Allreduce_ring", diff, sz(64<<10, 256<<10), lt(0)},
	// X4 overlap: an Icoll beside compute as long as the blocking call hides
	// most of it, because a Charge preempts a Compute (§3.3's threads sharing
	// a CPU). Floors 0.02 below the landed 0.871 / 0.906 and 0.911 / 0.917 at
	// 64K / 256K; before preemption they read 0.44 / 0.27 and 0.16 / 0.16.
	// The 8 B and 256 B cells are unchanged by it: there a compute chunk is
	// shorter than a Quantum, so a Charge queued behind one never cuts it.
	{"x4.allreduce-ovl-hidden", "§3.3 X4", "hcoll", "Allreduce_2level_ovl", "Allreduce_2level", hidden, sz(64<<10, 256<<10), ge(0.85)},
	{"x4.alltoall-ovl-hidden", "§3.3 X4", "hcoll", "Alltoall_2level_ovl", "Alltoall_2level", hidden, sz(64<<10, 256<<10), ge(0.89)},
	// X5, bridged 3 clusters: routed two-level, aware leaders, pipelined relay win.
	{"x5.2level-bcast-routed", "PR 4 X5", "gateway", "Bcast_2level_gw", "Bcast_flat_gw", diff, sz(64<<10, 256<<10), lt(0)},
	{"x5.2level-allreduce-routed", "PR 4 X5", "gateway", "Allreduce_2level_gw", "Allreduce_flat_gw", diff, sz(64<<10, 256<<10), lt(0)},
	{"x5.aware-bcast-fewer-hops", "PR 4 X5", "gateway", "GwHops_Bcast_2level_gw", "GwHops_Bcast_2level_gwnaive", diff, sz(64<<10, 256<<10), lt(0)},
	{"x5.aware-allreduce-fewer-hops", "PR 4 X5", "gateway", "GwHops_Allreduce_2level_gw", "GwHops_Allreduce_2level_gwnaive", diff, sz(64<<10, 256<<10), lt(0)},
	{"x5.pipelined-relay", "PR 4 X5", "gateway", "Relay_pipelined", "Relay_storefwd", diff, sz(64<<10, 256<<10, 1<<20), lt(0)},
	// X5 variant, the bridged triangle: striping, re-routing, bounded queues.
	{"x5v.stripe-1.5x", "PR 5 X5 variant", "adaptive", "Relay_single", "Relay_stripe", ratio, sz(64<<10, 256<<10, 1<<20), gt(1.5)},
	{"x5v.stripe-not-slower-16K", "PR 5 X5 variant", "adaptive", "Relay_stripe", "Relay_single", diff, sz(16 << 10), le(0)},
	{"x5v.adaptive-faster", "PR 5 X5 variant", "adaptive", "Adapt_adaptive", "Adapt_static", diff, sz(64<<10, 256<<10), lt(0)},
	{"x5v.adaptive-quieter", "PR 5 X5 variant", "adaptive", "AdaptQ_adaptive", "AdaptQ_static", diff, sz(64<<10, 256<<10), lt(0)},
	{"x5v.queue-within-window", "PR 5 X5 variant", "adaptive", "RelayQPeakMax", "RelayQWindow", diff, sz(16<<10, 64<<10, 256<<10, 1<<20), le(0)},
	// X6: the per-link device mux beats the uniform single-protocol transport.
	{"x6.mux-bcast", "PR 6 X6", "heteromux", "Mux_Bcast", "Uniform_Bcast", diff, sz(8, 256, 4<<10, 64<<10, 256<<10), lt(0)},
	{"x6.mux-allreduce", "PR 6 X6", "heteromux", "Mux_Allreduce", "Uniform_Allreduce", diff, sz(8, 256, 4<<10, 64<<10, 256<<10), lt(0)},
	// X9: multi-leader over single-leader at 1 MiB, floors 0.9 × the ratios on
	// the completion clock (1.8025, 2.8907, 2.9667, 2.1510), rounded down.
	{"x9.multi-bcast", "X9 0.9 × ratio", "multileader", "ML_Bcast_single", "ML_Bcast_multi", ratio, sz(1 << 20), gt(1.62)},
	{"x9.multi-allreduce", "X9 0.9 × ratio", "multileader", "ML_Allreduce_single", "ML_Allreduce_multi", ratio, sz(1 << 20), gt(2.6)},
	{"x9.multi-allgather", "X9 0.9 × ratio", "multileader", "ML_Allgather_single", "ML_Allgather_multi", ratio, sz(1 << 20), gt(2.67)},
	{"x9.multi-alltoall", "X9 0.9 × ratio", "multileader", "ML_Alltoall_single", "ML_Alltoall_multi", ratio, sz(1 << 20), gt(1.93)},
	// X9: no multi-leader time below what the wires allow — the busiest
	// directed bridge's share of the 1 MiB (N/2, 2N/3, N/3, N).
	{"x9.bcast-bridge-bound", "Table 1 X9", "multileader", "ML_Bcast_multi", "", value, sz(1 << 20), bridgeBound(1. / 2)},
	{"x9.allreduce-bridge-bound", "Table 1 X9", "multileader", "ML_Allreduce_multi", "", value, sz(1 << 20), bridgeBound(2. / 3)},
	{"x9.allgather-bridge-bound", "Table 1 X9", "multileader", "ML_Allgather_multi", "", value, sz(1 << 20), bridgeBound(1. / 3)},
	{"x9.alltoall-bridge-bound", "Table 1 X9", "multileader", "ML_Alltoall_multi", "", value, sz(1 << 20), bridgeBound(1)},
	// X9: with chunks, slabs and Bcast segments sized from the links they ride
	// (§4.2.2: each network carries messages sized for it), no multi-leader
	// time above 1.03 × what it measures so.
	{"x9.bcast-bridge-ceiling", "§4.2.2 X9", "multileader", "ML_Bcast_multi", "", value, sz(1 << 20), le(1.03 * 57818.48)},
	{"x9.allreduce-bridge-ceiling", "§4.2.2 X9", "multileader", "ML_Allreduce_multi", "", value, sz(1 << 20), le(1.03 * 80616.05)},
	{"x9.allgather-bridge-ceiling", "§4.2.2 X9", "multileader", "ML_Allgather_multi", "", value, sz(1 << 20), le(1.03 * 40990.50)},
	{"x9.alltoall-bridge-ceiling", "§4.2.2 X9", "multileader", "ML_Alltoall_multi", "", value, sz(1 << 20), le(1.03 * 111724.65)},
	// X8, 1024 ranks: the derived leader tree against the binomial tree's records.
	{"x8.bcast-below-allreduce", "PR 8 X8", "scale", "Bcast", "Allreduce", diff, sz(64, 1<<10, 16<<10), lt(0)},
	{"x8.barrier-vs-binomial", "PR 24 X8", "scale", "Barrier", "", value, sz(0), in("(]", 0, 0.85*1740.459)},
	{"x8.allreduce64-vs-binomial", "PR 24 X8", "scale", "Allreduce", "", value, sz(64), in("(]", 0, 0.97*2390.362)},
	{"x8.bcast64-vs-binomial", "PR 24 X8", "scale", "Bcast", "", value, sz(64), in("(]", 0, 1.01*1150.427)},
	{"x8.bcast1K-vs-binomial", "PR 24 X8", "scale", "Bcast", "", value, sz(1 << 10), in("(]", 0, 1.01*6182.296)},
	{"x8.bcast16K-vs-binomial", "PR 24 X8", "scale", "Bcast", "", value, sz(16 << 10), in("(]", 0, 1.01*89508.612)},
}...)

// verdict is a judged row as the scorecard shows it: a line of TestClaims's
// log, or a row of README's "Claims" table in markdown.
type verdict struct {
	c                          claim
	relation, measured, margin string
	ok                         bool
}

const line, markdown = "%-30s %-16s %s: %s — measured %s, margin %s", "| `%s` | %s | `%s`: %s | %s | %s |"

func (v verdict) as(format string) string {
	return fmt.Sprintf(format, v.c.id, v.c.src, v.c.exp, v.relation, v.measured, v.margin)
}

// check judges the row on the suite's results — anything it names missing
// fails it — and returns what was measured at its first failing size, else at
// its tightest one, and the margin there. A paper row also shows the
// simulated and the published value.
func (c claim) check(results map[string]*Result) verdict {
	expr := map[measure]string{value: c.a, ratio: c.a + " / " + c.b, diff: c.a + " − " + c.b,
		hidden: "1 − " + c.a + " / " + c.b, paper: "% error of " + c.a}[c.m]
	labels := make([]string, len(c.sizes))
	for i, size := range c.sizes {
		labels[i] = stats.SizeLabel(size)
	}
	v := verdict{c: c, relation: fmt.Sprintf("%s %s at %s", expr, c.want.text, strings.Join(labels, ","))}
	missing := func(format string, args ...any) verdict {
		v.measured, v.margin = "nothing", "none: "+fmt.Sprintf(format, args...)
		return v
	}
	r := results[c.exp]
	if r == nil {
		return missing("the suite ran no experiment %q", c.exp)
	}
	names := []string{c.a}
	if c.m != value && c.m != paper {
		names = append(names, c.b)
	}
	best := math.Inf(1)
	for _, size := range c.sizes {
		read, label := valueIn(r.Unit), stats.SizeLabel(size)
		var f figure
		if c.m == paper {
			i := slices.IndexFunc(published, func(f figure) bool { return f.exp == c.exp && f.series == c.a && f.size == size })
			if i < 0 {
				return missing("the paper publishes no %s of %s at %s", c.a, c.exp, label)
			}
			f, read = published[i], valueIn(published[i].unit)
		}
		var vs []float64
		for _, name := range names {
			i := slices.IndexFunc(r.Series, func(s *stats.Series) bool { return s.Name == name })
			if i < 0 {
				return missing("%s has no series %q", c.exp, name)
			}
			p, ok := r.Series[i].At(size)
			if !ok {
				return missing("series %q of %s has no point at %s", name, c.exp, label)
			}
			vs = append(vs, read(p))
		}
		x := vs[0]
		switch c.m {
		case ratio:
			x /= vs[1]
		case diff:
			x -= vs[1]
		case hidden:
			x = 1 - x/vs[1]
		case paper:
			x = 100 * math.Abs(x-f.want) / f.want
		}
		margin, ok := c.want.judge(x)
		if v.measured == "" || !ok || margin < best {
			v.measured, v.margin, best = fmt.Sprintf("%.6g at %s", x, label), fmt.Sprintf("%.6g", margin), margin
			if c.m == paper {
				v.measured = fmt.Sprintf("%.3g at %s: %.1f %s, published %g", x, label, vs[0], f.unit, f.want)
			}
		}
		if !ok {
			return v
		}
	}
	if v.measured == "" {
		return missing("the row names no size")
	}
	v.ok = true
	return v
}

// judgeClaims judges the rows whose id starts with one of prefixes ("" takes
// every row) on the suite's shared All() run and returns their verdicts;
// judging none fails.
func judgeClaims(t *testing.T, prefixes ...string) (judged []verdict) {
	results := map[string]*Result{}
	for _, r := range allOnce(t) {
		results[r.ID] = r
	}
	seen := map[string]bool{}
	for _, c := range claims {
		if seen[c.id] {
			t.Errorf("claim id %s is used twice", c.id)
		}
		seen[c.id] = true
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(c.id, p) }) {
			continue
		}
		v := c.check(results)
		if judged = append(judged, v); v.ok {
			t.Log(v.as(line))
		} else {
			t.Error("claim " + v.as(line))
		}
	}
	if len(judged) == 0 {
		t.Errorf("no claim row starts with any of %q", prefixes)
	}
	return judged
}

// TestClaims judges every row of the ledger; -v prints the scorecard. README's
// "Claims" table, between its markers, is the scorecard in markdown, byte for
// byte: on a mismatch the test prints the block to paste to standard output.
func TestClaims(t *testing.T) {
	want := "| claim | source | relation, at sizes in bytes | measured, at its tightest size | margin |\n|---|---|---|---|---|\n"
	for _, v := range judgeClaims(t, "") {
		want += v.as(markdown) + "\n"
	}
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), "<!-- claims:begin -->\n")
	if block, _, _ := strings.Cut(rest, "<!-- claims:end -->"); !ok || block != want {
		t.Error("README.md's claims block is missing or differs from the scorecard; the block to paste between its markers follows")
		fmt.Print(want)
	}
}

// The shape tests the ledger absorbed keep their names, each judging the rows
// that hold its relations (docs/changes/PR-25.md maps them).
func TestFig6Shape(t *testing.T)              { judgeClaims(t, "fig6") }
func TestFig7Shape(t *testing.T)              { judgeClaims(t, "fig7") }
func TestFig8Shape(t *testing.T)              { judgeClaims(t, "fig8") }
func TestFig9Shape(t *testing.T)              { judgeClaims(t, "fig9") }
func TestAblations(t *testing.T)              { judgeClaims(t, "x1.", "x2.") }
func TestForwardingExperiment(t *testing.T)   { judgeClaims(t, "x3.") }
func TestAdaptiveMultipathShape(t *testing.T) { judgeClaims(t, "x5v.") }

// TestClaimFailuresNameThemselves: a flipped relation, a missing series, a
// missing size and a figure off the paper's by more than its tolerance each
// fail, naming the row, what it wanted, what was measured and the margin — a
// failure is triaged from the log alone.
func TestClaimFailuresNameThemselves(t *testing.T) {
	a, b := &stats.Series{Name: "a"}, &stats.Series{Name: "b"}
	a.Add(4, 10*vtime.Microsecond)
	b.Add(4, 30*vtime.Microsecond)
	// A figure simulated at twice the paper's value is 100 % off.
	f := published[slices.IndexFunc(published, func(f figure) bool { return f.series == "chmad_bip" && f.size == 4 })]
	off := &stats.Series{Name: f.series}
	off.Add(f.size, vtime.Microseconds(2*f.want))
	results := map[string]*Result{
		"x":   render("x", "two series", unitTime, []*stats.Series{a, b}),
		f.exp: {ID: f.exp, Series: []*stats.Series{off}},
	}
	row := claims[slices.IndexFunc(claims, func(c claim) bool { return c.m == paper && c.a == f.series && c.sizes[0] == f.size })]
	for _, tc := range []struct {
		c    claim
		want string
	}{
		{claim{"flipped", "test", "x", "a", "b", diff, sz(4), gt(0)}, "measured -20 at 4, margin -20"},
		{claim{"no-series", "test", "x", "a", "nope", ratio, sz(4), gt(1)}, `x has no series "nope"`},
		{claim{"no-size", "test", "x", "a", "b", diff, sz(4, 8), lt(0)}, `series "a" of x has no point at 8`},
		{row, fmt.Sprintf("measured 100 at 4: %.1f us, published %g, margin %g", 2*f.want, f.want, f.tolPct-100)},
	} {
		v := tc.c.check(results)
		if v.ok {
			t.Errorf("%s held: %s", tc.c.id, v.as(line))
		}
		for _, part := range []string{tc.c.id, tc.c.want.text, "measured", "margin", tc.want} {
			if !strings.Contains(v.as(line), part) {
				t.Errorf("%s: %q does not say %q", tc.c.id, v.as(line), part)
			}
		}
	}
}
