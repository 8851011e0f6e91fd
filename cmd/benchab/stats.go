package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// result is the last line bench/run.sh prints: one JSON object.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult reads a run's standard output: its last non-empty line is
// the result object.
func parseResult(out string) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last line is not a result object: %v", err)
	}
	if len(r.Metrics) == 0 {
		return r, fmt.Errorf("result line carries no metrics")
	}
	return r, nil
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the largest relative worsening of the median allowed
}

// summary is one side's values of one metric over the pairs.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// quartiles are those of Python's statistics.quantiles(values, n=4), the
// default "exclusive" method, which bench/README.md's steadiness table
// uses: positions i·(n+1)/4, interpolated, clamped to the sample.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Values: values, Median: med, Q1: q1, Q3: q3}
}

// verdict is one (workload, metric) row of the report.
type verdict struct {
	metricSpec
	Base      summary `json:"base"`
	Change    summary `json:"change"`
	DeltaPct  float64 `json:"delta_pct"` // change median against the base median
	Wins      int     `json:"wins"`      // pairs the change read better in; ties count for neither
	Losses    int     `json:"losses"`
	Identical bool    `json:"identical"` // every pair read the same value on both sides
	// Gain is the rule for claiming one: the change wins at least nine
	// tenths of the pairs, and the medians differ, in its favour, by more
	// than the distance between the base's quartiles.
	Gain bool `json:"gain"`
	// Bound is "ok", "worse" (the change's median is worse than the base's
	// by more than the bound) or "unresolved" (the base's own spread is
	// wider than the bound, and the change did not read better than the
	// base on every run).
	Bound string `json:"bound_verdict"`
}

// better reports whether a reads better than b under spec.
func (s metricSpec) better(a, b float64) bool {
	if s.Better == "higher" {
		return a > b
	}
	return a < b
}

// judge compares the two sides' values of one metric, pair by pair: base[i]
// and change[i] ran with the same seed, one after the other.
func judge(spec metricSpec, base, change []float64) verdict {
	v := verdict{metricSpec: spec, Base: summarize(base), Change: summarize(change), Identical: true}
	for i := range base {
		switch {
		case spec.better(change[i], base[i]):
			v.Wins++
		case spec.better(base[i], change[i]):
			v.Losses++
		}
		v.Identical = v.Identical && change[i] == base[i]
	}
	bm, cm := v.Base.Median, v.Change.Median
	if bm != 0 {
		v.DeltaPct = 100 * (cm - bm) / math.Abs(bm)
	}
	v.Gain = 10*v.Wins >= 9*len(base) && spec.better(cm, bm) && math.Abs(cm-bm) > v.Base.Q3-v.Base.Q1
	worse := cm - bm
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case bm != 0 && worse/math.Abs(bm) > spec.Bound:
		v.Bound = "worse"
	case bm != 0 && (v.Base.Q3-v.Base.Q1)/math.Abs(bm) > spec.Bound && !allBetter(spec, change, base):
		v.Bound = "unresolved"
	default:
		v.Bound = "ok"
	}
	return v
}

// allBetter reports whether every value of a reads better than every value
// of b.
func allBetter(spec metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !spec.better(x, y) {
				return false
			}
		}
	}
	return true
}

// failedShare is the share of attempted operations that failed, over runs.
func failedShare(rs []result) float64 {
	att, fail := 0, 0
	for _, r := range rs {
		att, fail = att+r.Attempted, fail+r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// workloadReport is one workload's runs and verdicts.
type workloadReport struct {
	Name      string    `json:"name"`
	Seeds     []int64   `json:"seeds"`
	BaseFirst []bool    `json:"base_ran_first"`
	Verdicts  []verdict `json:"metrics"`
	// The share of attempted operations that failed, on each side.
	BaseFailed   float64 `json:"base_failed_share"`
	ChangeFailed float64 `json:"change_failed_share"`
	// FailuresRose is set when the change failed a larger share than the
	// base, or one of its runs was not correct.
	FailuresRose bool `json:"failures_rose"`
}

// report judges every end-to-end metric of one workload's pairs.
func report(name string, seeds []int64, baseFirst []bool, specs []metricSpec, base, change []result) (workloadReport, error) {
	w := workloadReport{Name: name, Seeds: seeds, BaseFirst: baseFirst}
	for _, spec := range specs {
		var b, c []float64
		for i := range base {
			bv, ok1 := base[i].Metrics[spec.Name]
			cv, ok2 := change[i].Metrics[spec.Name]
			if !ok1 || !ok2 {
				return w, fmt.Errorf("%s: seed %d: metric %s missing from a result line", name, seeds[i], spec.Name)
			}
			b, c = append(b, bv.Value), append(c, cv.Value)
		}
		w.Verdicts = append(w.Verdicts, judge(spec, b, c))
	}
	w.BaseFailed, w.ChangeFailed = failedShare(base), failedShare(change)
	w.FailuresRose = w.ChangeFailed > w.BaseFailed
	for _, r := range change {
		w.FailuresRose = w.FailuresRose || !r.Correct
	}
	return w, nil
}

// violated reports whether any end-to-end bound is broken.
func (w workloadReport) violated() bool {
	if w.FailuresRose {
		return true
	}
	for _, v := range w.Verdicts {
		if v.Bound == "worse" {
			return true
		}
	}
	return false
}

// table prints one workload's verdicts, one metric a line.
func (w workloadReport) table(sb *strings.Builder) {
	fmt.Fprintf(sb, "%s (%d pairs, seeds %v)\n", w.Name, len(w.Seeds), w.Seeds)
	fmt.Fprintf(sb, "  %-20s %-10s %26s %26s %8s %7s  %-5s %-10s %s\n",
		"metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "delta", "wins", "gain", "bound", "identical")
	for _, v := range w.Verdicts {
		fmt.Fprintf(sb, "  %-20s %-10s %26s %26s %+7.2f%% %3d/%-3d  %-5t %-10s %t\n",
			v.Name, v.Unit, quart(v.Base), quart(v.Change), v.DeltaPct, v.Wins, len(w.Seeds), v.Gain, v.Bound, v.Identical)
	}
	if w.FailuresRose {
		fmt.Fprintf(sb, "  the change failed a larger share of operations, or a run was not correct\n")
	}
}

func quart(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
