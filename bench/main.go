// Command bench is the repository's benchmark: four workloads on the
// simulated MPICH/Madeleine stack, each measured on two clocks — the
// virtual clock of the simulated machine and the clock of the host that
// simulates it — end to end and layer by layer. See README.md.
//
// The driver's form, one workload per process (BENCHMARK.json):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// By hand, from this directory:
//
//	go run .                              every workload, traced, results to out/results.json
//	go run . -workload NAME [-reps N]     one workload
//	go run . -compare A.json B.json       two result files against the bounds
//	go run . -manifest                    BENCHMARK.json, from the tables in metrics.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// report is a result file: what -compare reads.
type report struct {
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Workloads  map[string]*result `json:"workloads"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run this workload only (default: all four, one after another)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one workload's timed repetitions measure")
		traceOn  = flag.Int("trace", -1, "1: report the per-layer metrics, 0: the end-to-end ones (default: both)")
		reps     = flag.Int("reps", 0, "timed repetitions (default: as many as fit in -seconds, at least 5)")
		smoke    = flag.Bool("smoke", false, "shrunken grids, one repetition: a functional check, not a measurement")
		out      = flag.String("out", "", "directory for result and span files (default: the benchmark's out/)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *manifest:
		data, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *out == "" {
		*out = "out"
		if _, err := os.Stat("BENCHMARK.json"); err == nil {
			*out = "bench/out" // started from the repository root, as run.sh does
		}
	}
	if *smoke && *reps == 0 {
		*reps = 1
	}
	opt := options{seed: *seed, seconds: *seconds, reps: *reps, smoke: *smoke, outDir: *out,
		trace: *traceOn != 0, layersOnly: *traceOn == 1}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{w}
	}
	rep := report{Go: runtime.Version(), GOMAXPROCS: 2, Seed: *seed, Seconds: *seconds,
		Workloads: make(map[string]*result)}
	var last *result
	for _, w := range todo {
		res, err := runWorkload(w, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(res)
		rep.Workloads[w.name] = res
		last = res
	}
	if *name == "" {
		if err := writeReport(filepath.Join(*out, "results.json"), &rep); err != nil {
			fatal(err)
		}
	}
	if *name != "" && *traceOn >= 0 {
		// The driver's contract: the last line of standard output is one
		// JSON object with the metrics of the clock it asked for.
		metrics := last.EndToEnd
		if *traceOn == 1 {
			metrics = last.PerLayer
		}
		line := struct {
			Correct   bool                     `json:"correct"`
			Attempted int                      `json:"attempted"`
			Failed    int                      `json:"failed"`
			Metrics   map[string]contractValue `json:"metrics"`
		}{last.Failed == 0, last.Attempted, last.Failed, make(map[string]contractValue)}
		for k, v := range metrics {
			line.Metrics[k] = contractValue{v.Value, v.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit.
func printResult(res *result) {
	fmt.Printf("== %s  seed %d  %d timed repetitions  go %s  GOMAXPROCS 2\n",
		res.Workload, res.Seed, res.Reps, runtime.Version())
	fmt.Printf("%-34s %d\n%-34s %d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	if res.FirstFailure != "" {
		fmt.Printf("%-34s %s\n", "first_failure", res.FirstFailure)
	}
	for _, p := range res.Points {
		fmt.Printf("  point %-26s %-16.6g %s per operation\n", fmt.Sprintf("%s/%d", p.Series, p.Size), usOf(p.PerOp), uVUS)
	}
	for _, d := range endToEnd {
		printValue(d.Name, res.EndToEnd[d.Name])
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok {
			printValue(d.Name, v)
		}
	}
}

func printValue(name string, v value) {
	fmt.Printf("%-34s %-16.6g %-10s", name, v.Value, v.Unit)
	if s := v.Samples; s != nil {
		fmt.Printf(" min %.6g  q1 %.6g  q3 %.6g  n %d", s.Min, s.Q1, s.Q3, s.N)
	}
	fmt.Println()
}
