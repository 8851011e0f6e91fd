package main

import (
	"fmt"
	"strings"
	"testing"
)

// line is a canned last line of bench/run.sh.
func line(hostS, simBW float64, attempted, failed int) string {
	return fmt.Sprintf(`{"correct":true,"attempted":%d,"failed":%d,"metrics":{`+
		`"host_s":{"value":%g,"unit":"s"},"sim_bandwidth_MBps":{"value":%g,"unit":"virt_MB/s"}}}`,
		attempted, failed, hostS, simBW)
}

var specs = []metricSpec{
	{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_bandwidth_MBps", Unit: "virt_MB/s", Better: "higher", Bound: 0.03},
}

func parsed(t *testing.T, lines ...string) []result {
	t.Helper()
	var rs []result
	for _, l := range lines {
		r, err := parseResult("host_s 0.27 s\nsome table\n" + l + "\n")
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return rs
}

func TestParseResultReadsTheLastLine(t *testing.T) {
	r := parsed(t, line(0.2705, 55.2, 100, 1))[0]
	if !r.Correct || r.Attempted != 100 || r.Failed != 1 || r.Metrics["host_s"].Value != 0.2705 || r.Metrics["host_s"].Unit != "s" {
		t.Fatalf("parsed %+v", r)
	}
	for _, out := range []string{"", "no json here", `{"correct":true,"metrics":{}}`} {
		if _, err := parseResult(out); err == nil {
			t.Errorf("parseResult(%q) accepted it", out)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(values, n=4), values computed there.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, me, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated, as Python does
		{[]float64{4, 1, 3}, 1, 3, 4},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, me, q3 := quartiles(c.in)
		if q1 != c.q1 || me != c.me || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, me, q3, c.q1, c.me, c.q3)
		}
	}
}

// TestGainNeedsNineOfTenAndTheSpread: the gain rule's two halves, each
// failing alone.
func TestGainNeedsNineOfTenAndTheSpread(t *testing.T) {
	base := []float64{0.270, 0.268, 0.275, 0.272, 0.266, 0.271, 0.269, 0.274, 0.270, 0.273}
	faster := []float64{0.240, 0.238, 0.245, 0.242, 0.236, 0.241, 0.239, 0.244, 0.240, 0.243}
	v := judge(specs[0], base, faster)
	if !v.Gain || v.Wins != 10 || v.Losses != 0 || v.Bound != "ok" || v.Identical {
		t.Fatalf("clear gain judged %+v", v)
	}
	if v.DeltaPct > -10 || v.DeltaPct < -12 {
		t.Errorf("delta %.2f%%, want about -11%%", v.DeltaPct)
	}

	eightOfTen := append([]float64{}, faster...)
	eightOfTen[0], eightOfTen[1] = 0.300, 0.300
	if v := judge(specs[0], base, eightOfTen); v.Gain || v.Wins != 8 || v.Losses != 2 {
		t.Errorf("8 of 10 pairs judged a gain: %+v", v)
	}

	// Every pair won, but by less than the base's interquartile range.
	within := make([]float64, len(base))
	for i, b := range base {
		within[i] = b - 0.001
	}
	if v := judge(specs[0], base, within); v.Gain || v.Wins != 10 {
		t.Errorf("a gap inside the base's spread judged a gain: %+v", v)
	}
	if v := judge(specs[0], base, base); v.Gain || v.Wins != 0 || v.Losses != 0 || !v.Identical || v.Bound != "ok" {
		t.Errorf("A/A judged %+v", v)
	}
}

func TestBoundVerdicts(t *testing.T) {
	steady := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i := range out {
			out[i] = steady[i] * f
		}
		return out
	}
	for _, c := range []struct {
		spec   metricSpec
		change []float64
		want   string
	}{
		{specs[0], scaled(1.2), "ok"},    // 20 % slower, inside 25 %
		{specs[0], scaled(1.3), "worse"}, // 30 % slower
		{specs[1], scaled(0.98), "ok"},   // 2 % less bandwidth, inside 3 %
		{specs[1], scaled(0.96), "worse"},
		{specs[1], scaled(1.5), "ok"},
	} {
		if v := judge(c.spec, steady, c.change); v.Bound != c.want {
			t.Errorf("%s at %g: %s, want %s", c.spec.Name, c.change[0], v.Bound, c.want)
		}
	}
	// A base whose own quartiles lie further apart than the bound cannot
	// tell a 2 % change from noise, unless every change run beats every
	// base run.
	noisy := []float64{50, 50, 50, 60, 60, 60, 60, 70, 70, 70}
	if v := judge(specs[1], noisy, noisy); v.Bound != "unresolved" {
		t.Errorf("noisy A/A: %s, want unresolved", v.Bound)
	}
	if v := judge(specs[1], noisy, scaled(80)); v.Bound != "ok" {
		t.Errorf("noisy base, change above all of it: %s, want ok", v.Bound)
	}
}

func TestReportJudgesEveryMetricAndFailures(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	first := []bool{true, false, true, false}
	base := parsed(t, line(0.27, 55.2, 100, 0), line(0.27, 55.2, 100, 0), line(0.28, 55.2, 100, 0), line(0.26, 55.2, 100, 0))
	same := parsed(t, line(0.24, 55.2, 100, 0), line(0.24, 55.2, 100, 0), line(0.25, 55.2, 100, 0), line(0.23, 55.2, 100, 0))
	w, err := report("p2p_paper", seeds, first, specs, base, same)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Verdicts) != 2 || !w.Verdicts[0].Gain || !w.Verdicts[1].Identical || w.violated() {
		t.Fatalf("report %+v", w)
	}
	var sb strings.Builder
	w.table(&sb)
	for _, want := range []string{"p2p_paper (4 pairs", "host_s", "sim_bandwidth_MBps", "4/4"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, sb.String())
		}
	}

	failing := parsed(t, line(0.24, 55.2, 100, 1), line(0.24, 55.2, 100, 0), line(0.25, 55.2, 100, 0), line(0.23, 55.2, 100, 0))
	if w, _ := report("p2p_paper", seeds, first, specs, base, failing); !w.FailuresRose || !w.violated() {
		t.Errorf("a failed operation did not count: %+v", w)
	}
	slow := parsed(t, line(0.27, 50, 100, 0), line(0.27, 50, 100, 0), line(0.28, 50, 100, 0), line(0.26, 50, 100, 0))
	if w, _ := report("p2p_paper", seeds, first, specs, base, slow); !w.violated() || w.Verdicts[1].Bound != "worse" {
		t.Errorf("a 9 %% bandwidth loss passed: %+v", w)
	}
	if _, err := report("p2p_paper", seeds[:1], first[:1], append(specs, metricSpec{Name: "setup_s"}), base[:1], same[:1]); err == nil {
		t.Error("a metric missing from the result lines was not reported")
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1-3,7,9-10")
	if err != nil || fmt.Sprint(got) != "[1 2 3 7 9 10]" {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "3-1", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted it", bad)
		}
	}
}
