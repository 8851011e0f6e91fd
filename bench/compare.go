package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints one row per (workload, metric) of two result files
// — both values and B over A — and reports whether B is acceptable
// against A: no end-to-end metric worse by more than its bound, no
// number from the simulated machine different at all, and no more failed
// operations per operation attempted.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d, %d): the inputs differ, so the virtual clock may too\n", a.Seed, b.Seed)
	}
	ok := true
	fmt.Fprintf(w, "%-15s %-30s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			if ra != rb {
				fmt.Fprintf(w, "%-15s in one file only\n", wl.name)
				ok = false
			}
			continue
		}
		if float64(rb.Failed)*float64(ra.Attempted) > float64(ra.Failed)*float64(rb.Attempted) {
			fmt.Fprintf(w, "%-15s %-30s %14s %14s %9s  FAIL: more operations fail\n", wl.name, "ops_failed/ops_attempted",
				fmt.Sprintf("%d/%d", ra.Failed, ra.Attempted), fmt.Sprintf("%d/%d", rb.Failed, rb.Attempted), "")
			ok = false
		}
		row := func(d metricDef, va, vb value, has bool) {
			if !has {
				return
			}
			verdict := ""
			switch {
			case d.Exact && va.Value != vb.Value:
				verdict = "FAIL: read from the simulated machine, must be identical"
			case d.Bound > 0 && worseBy(d, va.Value, vb.Value) > d.Bound:
				verdict = fmt.Sprintf("FAIL: worse by %.1f%%, bound %.1f%%", 100*worseBy(d, va.Value, vb.Value), 100*d.Bound)
			}
			if verdict != "" {
				ok = false
			}
			ratio := "-"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.4f", vb.Value/va.Value)
			}
			fmt.Fprintf(w, "%-15s %-30s %14.6g %14.6g %9s  %s\n", wl.name, d.Name, va.Value, vb.Value, ratio, verdict)
		}
		for _, d := range endToEnd {
			va, ina := ra.EndToEnd[d.Name]
			vb, inb := rb.EndToEnd[d.Name]
			row(d, va, vb, ina && inb)
		}
		for _, d := range perLayer {
			va, ina := ra.PerLayer[d.Name]
			vb, inb := rb.PerLayer[d.Name]
			row(d, va, vb, ina && inb)
		}
	}
	return ok, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}
