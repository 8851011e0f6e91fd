// Command madlint machine-checks the simulator's coding rules: it loads
// the named packages (default ./...) with full type information and runs
// the four analyzers from internal/lint —
//
//	determinism  no wall clock, global rand, raw concurrency or
//	             map-order effects in simulation packages
//	pktswitch    switches over packet/control-kind enums cover every
//	             constant or carry an explicit default
//	vtimectx     scheduler-context callbacks (Scheduler.At/After,
//	             Event.OnFire, Endpoint.OnDeliver) never reach a
//	             vtime-blocking primitive
//	deadexport   every exported func, method, var and const of a
//	             non-main package is referenced by some non-test file
//	             of the loaded packages (lint the whole module)
//
// Findings print as file:line:col: [analyzer] message and the exit status
// is 1 when any survive. Suppress a finding with a
// "//madlint:ignore <analyzer> <reason>" comment on or above its line;
// opt an out-of-tree file into the determinism rules with
// "//madlint:simulation". See internal/mpi's package documentation for
// the rules' rationale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpichmad/internal/lint"
)

func main() {
	var only string
	flag.StringVar(&only, "analyzers", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: madlint [-analyzers list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := lint.All()
	if only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			fmt.Fprintf(os.Stderr, "madlint: unknown analyzers: %v\n", want)
			os.Exit(2)
		}
		analyzers = sel
	}

	prog, err := lint.Load("", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "madlint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(prog, analyzers)
	for _, d := range diags {
		fmt.Println(d.String(prog.Fset))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
