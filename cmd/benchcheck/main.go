// Command benchcheck is the CI bench-regression gate: it reads the
// regenerated BENCH_collectives.json (written by BenchmarkHierCollectives)
// and fails if the hierarchy-aware algorithms stop beating their flat
// counterparts on simulated time where they are supposed to — most
// importantly, if Allreduce_2level loses to Allreduce_flat at large
// message sizes on the contended-backbone 2x4 heterogeneous topology —
// or if the multi-path transport loses its striping/adaptive wins on the
// bridged triangle, or any gateway queue exceeds its credit window, or
// the per-link device mux stops beating the uniform single-protocol
// transport on the mixed SCI+BIP+TCP cluster, or the multi-leader
// rail-striped collectives lose their 1.5x aggregate-bandwidth win over
// the single-leader two-level forms at 1 MiB on the bridged triangle.
//
// Every failure prints the expected relation, the actual values and the
// margin by which the rule missed, so a regression can be triaged from
// the CI log alone.
//
// It also reads BENCH_scale.json (written by BenchmarkScaleMachine) and
// gates the 1000+-rank scaling story: the routing planner's cost growth
// from 256 to 1024 ranks must stay below the quadratic 16x on both time
// and allocated bytes (plan construction itself must stay near-linear),
// and the full 1024-rank scale experiment must complete within a generous
// wall-clock ceiling — the regression alarms for the hierarchical
// routing and lazy-resolution hot paths.
//
// With -scaleseed it additionally compares the regenerated scale file's
// simulated series against a seed snapshot (the committed BENCH_scale.json
// of the base revision): every virtual time must stay within 2% of the
// seed. The simulation is deterministic, so any drift at all means the
// change perturbed transport behavior — the gate CI uses to prove that
// disabled tracing costs nothing on the scale machine.
//
// Usage:
//
//	benchcheck [-f BENCH_collectives.json] [-scale BENCH_scale.json]
//	           [-scaleseed BENCH_scale_seed.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"mpichmad/internal/stats"
)

// rule asserts that the challenger series beats the incumbent at every
// recorded size >= minSize: incumbent > challenger x minRatio. minRatio
// 0 means 1.0 — strictly faster; 1.5 demands a 1.5x win.
type rule struct {
	challenger, incumbent string
	minSize               int
	minRatio              float64
	why                   string
}

// capRule asserts that a series never exceeds its bound series at any
// common size (used for queue-occupancy series, whose point values are
// counts, not times). The bound rides the same file so the gate tracks
// whatever window the data was actually generated under.
type capRule struct {
	series, bound string
	why           string
}

// Scale-gate bounds. Rank count grows 4x between the two planner samples,
// so a quadratic planner would grow 16x; the growth rules keep every
// measured curve strictly below that, with the measured values (~13x
// workload ns, ~9.1x workload bytes, ~6.8x allocs, ~4.2x construction)
// leaving real headroom. Allocation ratios are deterministic; the wall
// ceiling sits at several times the measured 1024-rank run (~2 s) — it
// exists to catch the planner falling back to all-pairs work or a
// per-packet host cost creeping in, not host jitter.
const (
	scaleWorkloadNsMaxRatio = 16.0 // quadratic bound on the resolution sweep
	scaleWorkloadBMaxRatio  = 14.0 // measured 9.1x
	scaleAllocsMaxRatio     = 12.0 // measured 6.8x
	scaleConstructMaxRatio  = 8.0  // near-linear construction, measured 4.2x
	scaleWallCeilingMs      = 10000
)

// checkScale applies the growth-ratio and wall-clock gates to
// BENCH_scale.json; returns the number of failed rules.
func checkScale(file string) int {
	sf := load(file)
	failed := 0
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: "+format+"\n", args...)
		failed++
	}
	if len(sf.Planner) != 2 || sf.Planner[0].Ranks >= sf.Planner[1].Ranks {
		fail("%s: want two planner samples in increasing rank order, got %+v", file, sf.Planner)
		return failed
	}
	small, big := sf.Planner[0], sf.Planner[1]
	ratio := func(a, b int64) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	growth := []struct {
		name     string
		got, max float64
		why      string
	}{
		{"workload ns/op", ratio(big.WorkloadNsPerOp, small.WorkloadNsPerOp), scaleWorkloadNsMaxRatio,
			"planner resolution sweep must stay below quadratic growth in ranks"},
		{"workload B/op", ratio(big.WorkloadBPerOp, small.WorkloadBPerOp), scaleWorkloadBMaxRatio,
			"planner allocation growth must stay well below quadratic (lazy trees, not all-pairs state)"},
		{"workload allocs/op", ratio(big.WorkloadAllocs, small.WorkloadAllocs), scaleAllocsMaxRatio,
			"planner allocation count must stay well below quadratic"},
		{"construct ns/op", ratio(big.ConstructNsPerOp, small.ConstructNsPerOp), scaleConstructMaxRatio,
			"bare plan construction must stay near-linear in ranks"},
	}
	for _, g := range growth {
		if g.got <= 0 {
			fail("%s: %s growth ratio unmeasurable (%d -> %d ranks)", file, g.name, small.Ranks, big.Ranks)
			continue
		}
		if g.got >= g.max {
			fail("planner %s grew %.2fx from %d to %d ranks (bound %.1fx) — %s",
				g.name, g.got, small.Ranks, big.Ranks, g.max, g.why)
		}
	}
	if sf.RunWallMs <= 0 {
		fail("%s: missing run_wall_ms for the %d-rank scale run", file, sf.RunRanks)
	} else if sf.RunWallMs > scaleWallCeilingMs {
		fail("the %d-rank scale experiment took %.0f ms of wall clock (ceiling %d ms)",
			sf.RunRanks, sf.RunWallMs, scaleWallCeilingMs)
	}
	// The simulated sweeps are deterministic: both collectives must have
	// rendered non-trivial times, and Bcast must stay cheaper than
	// Allreduce at every common size (it moves half the traffic).
	bySeries := sf.Values()
	for _, s := range sf.Series {
		for _, p := range s.Points {
			if p.VirtualUS <= 0 {
				fail("%s: series %s has a non-positive simulated time at %d B", file, s.Name, p.SizeBytes)
			}
		}
	}
	ar, okA := bySeries["Allreduce"]
	bc, okB := bySeries["Bcast"]
	if !okA || !okB {
		fail("%s: want Allreduce and Bcast series, got %d series", file, len(sf.Series))
	} else {
		for size, a := range ar {
			if b, ok := bc[size]; ok && b >= a {
				fail("Bcast (%.1f us) is not cheaper than Allreduce (%.1f us) at %d B on the scale machine",
					b, a, size)
			}
		}
	}
	// The leader level of the two-level trees is derived from the backbone's
	// LogGP numbers: against the completions recorded over the binomial
	// leader tree it replaced, the Barrier must stay well ahead, the 64 B
	// Allreduce ahead, and no Bcast point may fall behind (the trunk-bound
	// ones move by the order of their crossings, a fraction of a percent).
	for _, r := range []struct {
		series   string
		size     int
		binomial float64
		within   float64 // of binomial; measured 0.78, 0.94, 0.97 / 1.003 / 1.000
	}{
		{"Barrier", 0, 1740.459, 0.85},
		{"Allreduce", 64, 2390.362, 0.97},
		{"Bcast", 64, 1150.427, 1.01}, {"Bcast", 1 << 10, 6182.296, 1.01}, {"Bcast", 16 << 10, 89508.612, 1.01},
	} {
		if got, ok := bySeries[r.series][r.size]; !ok {
			fail("%s: no %s point at %d B", file, r.series, r.size)
		} else if got > r.within*r.binomial {
			fail("%s at %d B completes in %.1f us on the scale machine, want at most %.2f x the %.1f us it took over a binomial leader tree",
				r.series, r.size, got, r.within, r.binomial)
		}
	}
	return failed
}

// scaleSeedTolerance bounds how far the regenerated scale series may
// drift from the seed snapshot: 2%. Virtual times are deterministic, so
// the expected drift is exactly zero; the headroom only absorbs a seed
// captured before an intentional, reviewed cost-model change.
const scaleSeedTolerance = 0.02

// checkScaleSeed compares the regenerated scale file's simulated series
// point-by-point against the seed snapshot; returns the number of failed
// comparisons.
func checkScaleSeed(file, seedFile string) int {
	cur, seed := load(file), load(seedFile)
	failed := 0
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "benchcheck: FAIL: "+format+"\n", args...)
		failed++
	}
	curBy := cur.Values()
	checked := 0
	for _, s := range seed.Series {
		m, ok := curBy[s.Name]
		if !ok {
			fail("series %q present in seed %s but missing from %s", s.Name, seedFile, file)
			continue
		}
		for _, p := range s.Points {
			got, ok := m[p.SizeBytes]
			if !ok {
				fail("series %s lost its %d B point relative to seed %s", s.Name, p.SizeBytes, seedFile)
				continue
			}
			checked++
			if p.VirtualUS <= 0 {
				continue
			}
			drift := (got - p.VirtualUS) / p.VirtualUS
			if drift < 0 {
				drift = -drift
			}
			if drift > scaleSeedTolerance {
				fail("series %s at %d B drifted %.2f%% from the seed (%.1f us -> %.1f us, bound %.0f%%) — "+
					"simulated time is deterministic, so the change perturbed the transport itself",
					s.Name, p.SizeBytes, drift*100, p.VirtualUS, got, scaleSeedTolerance*100)
			}
		}
	}
	if checked == 0 {
		fail("no common scale series points between %s and seed %s", file, seedFile)
	}
	return failed
}

func main() {
	file := flag.String("f", "BENCH_collectives.json", "bench series file to check")
	scaleF := flag.String("scale", "BENCH_scale.json", "scale bench file to check (\"\" to skip)")
	scaleSeed := flag.String("scaleseed", "", "seed BENCH_scale.json snapshot to diff the regenerated scale series against (\"\" to skip)")
	flag.Parse()

	byName := load(*file).Values()

	rules := []rule{
		{"Allreduce_2level_cap", "Allreduce_flat_cap", 64 << 10, 0,
			"two-level Allreduce must beat flat on time under backbone contention"},
		{"Bcast_2level_cap", "Bcast_flat_cap", 64 << 10, 0,
			"two-level Bcast must beat flat on time under backbone contention"},
		{"Allreduce_ring2l_cap", "Allreduce_flat_cap", 64 << 10, 0,
			"two-level ring Allreduce must beat the flat tree under backbone contention"},
		{"Allreduce_ring", "Allreduce_flat", 64 << 10, 0,
			"ring Allreduce must beat the binomial tree for large vectors"},
		// X5: the multi-gateway bridged topology (cost-model routing).
		{"Bcast_2level_gw", "Bcast_flat_gw", 64 << 10, 0,
			"routed two-level Bcast must beat the flat-forwarded tree on the bridged 3-cluster topology"},
		{"Allreduce_2level_gw", "Allreduce_flat_gw", 64 << 10, 0,
			"routed two-level Allreduce must beat the flat-forwarded tree on the bridged 3-cluster topology"},
		{"GwHops_Bcast_2level_gw", "GwHops_Bcast_2level_gwnaive", 64 << 10, 0,
			"gateway-aware two-level Bcast must cross strictly fewer gateway hops than oblivious leaders"},
		{"GwHops_Allreduce_2level_gw", "GwHops_Allreduce_2level_gwnaive", 64 << 10, 0,
			"gateway-aware two-level Allreduce must cross strictly fewer gateway hops than oblivious leaders"},
		{"Relay_pipelined", "Relay_storefwd", 64 << 10, 0,
			"pipelined gateway relay must beat store-and-forward for >= 64 KiB payloads"},
		// X5 variant: the bridged triangle (adaptive multi-path relay).
		{"Relay_stripe", "Relay_single", 64 << 10, 1.5,
			"two-rail striping must be >= 1.5x faster than the single-path pipelined relay"},
		{"Adapt_adaptive", "Adapt_static", 64 << 10, 0,
			"the adaptive re-plan must beat the static plan when a bridge is loaded"},
		{"AdaptQ_adaptive", "AdaptQ_static", 64 << 10, 0,
			"the adaptive re-plan must lower the hot gateway's relay queue depth"},
		// X6: the per-link device mux on the mixed SCI+BIP+TCP cluster.
		{"Mux_Bcast", "Uniform_Bcast", 8, 0,
			"the per-link device mux must beat the uniform single-protocol transport on Bcast at every size"},
		{"Mux_Allreduce", "Uniform_Allreduce", 8, 0,
			"the per-link device mux must beat the uniform single-protocol transport on Allreduce at every size"},
		// X9: multi-leader rail-striped collectives on the bridged triangle.
		// The floors are 0.9 x the ratios measured when the bridge rounds
		// began to hide the intra-cluster phases: 2.00, 2.54, 2.24, 2.12.
		{"ML_Bcast_multi", "ML_Bcast_single", 1 << 20, 1.8,
			"the autotuner-selected multi-leader Bcast must be >= 1.8x faster than the forced single-leader two-level form at 1 MiB"},
		{"ML_Allreduce_multi", "ML_Allreduce_single", 1 << 20, 2.29,
			"the autotuner-selected multi-leader Allreduce must be >= 2.29x faster than the forced single-leader two-level form at 1 MiB"},
		{"ML_Allgather_multi", "ML_Allgather_single", 1 << 20, 2.02,
			"the autotuner-selected multi-leader Allgather must be >= 2.02x faster than the forced single-leader two-level form at 1 MiB"},
		{"ML_Alltoall_multi", "ML_Alltoall_single", 1 << 20, 1.91,
			"the autotuner-selected multi-leader Alltoall must be >= 1.91x faster than the forced single-leader two-level form at 1 MiB"},
	}
	caps := []capRule{
		{"RelayQPeakMax", "RelayQWindow",
			"no gateway store-and-forward queue may exceed the configured credit window"},
	}

	failed := 0
	for _, r := range rules {
		minRatio := r.minRatio
		if minRatio == 0 {
			minRatio = 1.0
		}
		ch, ok := byName[r.challenger]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: series %q missing from %s\n", r.challenger, *file)
			failed++
			continue
		}
		inc, ok := byName[r.incumbent]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: series %q missing from %s\n", r.incumbent, *file)
			failed++
			continue
		}
		checked := 0
		for size, incUS := range inc {
			if size < r.minSize {
				continue
			}
			chUS, ok := ch[size]
			if !ok {
				continue
			}
			checked++
			if incUS > chUS*minRatio {
				continue
			}
			// Expected vs actual plus the miss margin, in both the
			// rule's unit and as a ratio where one is defined.
			fmt.Fprintf(os.Stderr,
				"benchcheck: FAIL: %s vs %s at %d B — %s\n", r.challenger, r.incumbent, size, r.why)
			fmt.Fprintf(os.Stderr,
				"  expected: %s > %.2fx × %s\n", r.incumbent, minRatio, r.challenger)
			fmt.Fprintf(os.Stderr,
				"  actual:   %s = %.1f, %s = %.1f (needed %s < %.1f, short by %.1f",
				r.incumbent, incUS, r.challenger, chUS, r.challenger, incUS/minRatio, chUS-incUS/minRatio)
			if chUS > 0 {
				fmt.Fprintf(os.Stderr, "; achieved %.2fx of the required %.2fx", incUS/chUS, minRatio)
			}
			fmt.Fprintln(os.Stderr, ")")
			failed++
		}
		if checked == 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: no common sizes >= %d B for %s vs %s\n",
				r.minSize, r.challenger, r.incumbent)
			failed++
		}
	}
	for _, c := range caps {
		s, ok := byName[c.series]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: series %q missing from %s\n", c.series, *file)
			failed++
			continue
		}
		bound, ok := byName[c.bound]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: bound series %q missing from %s\n", c.bound, *file)
			failed++
			continue
		}
		checked := 0
		for size, v := range s {
			max, ok := bound[size]
			if !ok {
				continue
			}
			checked++
			if v <= max {
				continue
			}
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: %s at %d B — %s\n", c.series, size, c.why)
			fmt.Fprintf(os.Stderr, "  expected: <= %s = %.1f\n  actual:   %.1f (over by %.1f)\n",
				c.bound, max, v, v-max)
			failed++
		}
		if checked == 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL: no common sizes for %s vs bound %s\n",
				c.series, c.bound)
			failed++
		}
	}
	scaleFailed := 0
	if *scaleF != "" {
		scaleFailed = checkScale(*scaleF)
		if *scaleSeed != "" {
			scaleFailed += checkScaleSeed(*scaleF, *scaleSeed)
		}
	}
	if failed+scaleFailed > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d rules and %d caps hold on %s\n", len(rules), len(caps), *file)
	if *scaleF != "" {
		fmt.Printf("benchcheck: scale growth, wall-clock and collective gates hold on %s\n", *scaleF)
	}
	if *scaleF != "" && *scaleSeed != "" {
		fmt.Printf("benchcheck: scale series within %.0f%% of seed %s\n", scaleSeedTolerance*100, *scaleSeed)
	}
}

// load reads one BENCH file (the format is stats.BenchFile) or exits.
func load(file string) *stats.BenchFile {
	f, err := stats.ReadBenchFile(file)
	if err != nil {
		fatal(err)
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
