// Top-level benchmark harness: the one benchmark CI runs. It records what
// the host pays for the 1024-rank machine — planner growth and the scale
// experiment's wall clock — to BENCH_scale.json (the format is
// stats.BenchFile) for cmd/benchcheck's gate; README's "Measuring" section
// says which command regenerates which number:
//
//	go test -run '^$' -bench BenchmarkScaleMachine -benchtime 1x .
//
// The simulated numbers are not recorded here: they come from
//
//	go run ./cmd/experiments -exp all
//
// and testdata/all.txt pins them and the claims ledger judges them, both in
// internal/experiments' tier-1 tests.
package mpichmad_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mpichmad/internal/experiments"
	"mpichmad/internal/netsim"
	"mpichmad/internal/route"
	"mpichmad/internal/stats"
)

// scaleRouteGraph mirrors the X8 scale machine as a planner graph:
// nClusters SCI islands of perCluster ranks, one gateway per island (the
// island's first rank) on a trunk-capped TCP backbone.
func scaleRouteGraph(nClusters, perCluster int) route.Graph {
	g := route.Graph{Nets: make(map[string]netsim.Params)}
	bb := netsim.FastEthernetTCP()
	bb.NetworkBandwidth = bb.Bandwidth
	g.Nets["bb"] = bb
	for c := 0; c < nClusters; c++ {
		fabric := fmt.Sprintf("cl%03d", c)
		g.Nets[fabric] = netsim.SCISISCI()
		for m := 0; m < perCluster; m++ {
			nets := []string{fabric}
			if m == 0 {
				nets = append(nets, "bb")
			}
			g.NetsOf = append(g.NetsOf, nets)
			g.N++
		}
	}
	return g
}

// scalePlanWorkload drives the resolution pattern a scale session puts on
// a fresh plan: bloc-representative sweeps (leader election), member ->
// leader route installation, and the leader-pair cost scan (backbone
// recalibration).
func scalePlanWorkload(tb testing.TB, plan *route.Plan, nClusters, perCluster int) {
	for bl := 0; bl < plan.BlocCount(); bl++ {
		r := plan.BlocMembers(bl)[0]
		for ob := 0; ob < plan.BlocCount(); ob++ {
			if ob == bl {
				continue
			}
			o := plan.BlocMembers(ob)[0]
			if _, ok := plan.Cost(r, o); !ok {
				tb.Fatalf("unroutable bloc pair %d->%d", bl, ob)
			}
			if plan.Hops(r, o) < 0 {
				tb.Fatalf("no hops for bloc pair %d->%d", bl, ob)
			}
		}
	}
	for c := 0; c < nClusters; c++ {
		leader := c * perCluster
		for m := 1; m < perCluster; m++ {
			if hops, ok := plan.Path(leader+m, leader); !ok || len(hops) == 0 {
				tb.Fatalf("member %d cannot reach leader %d", leader+m, leader)
			}
		}
	}
	for a := 0; a < nClusters; a++ {
		for o := 0; o < nClusters; o++ {
			if a == o {
				continue
			}
			if _, ok := plan.Cost(a*perCluster, o*perCluster); !ok {
				tb.Fatalf("unroutable leader pair %d->%d", a, o)
			}
		}
	}
}

// measureLoop times fn (hand-rolled, since testing.Benchmark cannot be
// nested inside a running benchmark): it calibrates an iteration count
// off one warm-up run, then reports per-op wall ns and heap allocation
// deltas from runtime.MemStats.
func measureLoop(fn func()) (nsPerOp, bPerOp, allocsPerOp int64) {
	start := time.Now()
	fn() // warm-up, and the calibration sample
	once := time.Since(start)
	iters := 1
	if target := 250 * time.Millisecond; once < target {
		iters = int(target / (once + 1))
		if iters > 200 {
			iters = 200
		}
	}
	// Three rounds, keeping the fastest wall time (the classic noise
	// filter: scheduling hiccups only ever slow a round down). Allocation
	// deltas are deterministic, so the first round's values stand.
	n := int64(iters)
	for round := 0; round < 3; round++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if ns := elapsed.Nanoseconds() / n; nsPerOp == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if round == 0 {
			bPerOp = int64(after.TotalAlloc-before.TotalAlloc) / n
			allocsPerOp = int64(after.Mallocs-before.Mallocs) / n
		}
	}
	return nsPerOp, bPerOp, allocsPerOp
}

// BenchmarkScaleMachine measures the 1000+-rank scaling story (X8): the
// routing planner's cost growth from 256 to 1024 ranks (construction
// alone and construction plus the session resolution workload; the
// benchcheck growth gate bounds the 256->1024 ratios sub-quadratic, where
// quadratic would be 16x) and the full 1024-rank scale experiment's
// wall-clock time, recording everything to BENCH_scale.json. Every field is
// host-dependent; only the growth ratios and a generous wall-clock ceiling
// are gated.
func BenchmarkScaleMachine(b *testing.B) {
	out := stats.BenchFile{
		Experiment: "X8 scale: hierarchical routing + scheduler hot paths at 1024 ranks",
		Topology: "64 SCI islands x 16 ranks (1024 ranks), one gateway per island on a" +
			" trunk-capped TCP backbone; planner growth sampled at 256 and 1024 ranks" +
			" on the same shape (workload = construction + bloc/leader resolution sweep)",
	}
	for _, shape := range []struct{ nc, per int }{{16, 16}, {64, 16}} {
		nc, per := shape.nc, shape.per
		g := scaleRouteGraph(nc, per)
		opts := route.Options{RefBytes: route.DefaultRefBytes, MaxPaths: 1}
		wNs, wB, wAllocs := measureLoop(func() {
			scalePlanWorkload(b, route.ComputeOpts(g, opts), nc, per)
		})
		cNs, _, _ := measureLoop(func() {
			route.ComputeOpts(g, opts)
		})
		out.Planner = append(out.Planner, stats.PlannerPoint{
			Ranks:            nc * per,
			WorkloadNsPerOp:  wNs,
			WorkloadBPerOp:   wB,
			WorkloadAllocs:   wAllocs,
			ConstructNsPerOp: cNs,
		})
	}

	b.ResetTimer()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.ByID("scale")
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	out.RunWallMs = float64(b.Elapsed().Milliseconds()) / float64(b.N)
	b.ReportMetric(out.RunWallMs, "wallms/run")
	// After ResetTimer: it deletes user-reported metrics, so the planner
	// samples are reported here, not inside the measurement loop above.
	for _, p := range out.Planner {
		b.ReportMetric(float64(p.WorkloadNsPerOp), fmt.Sprintf("planner_ns@%d", p.Ranks))
		b.ReportMetric(float64(p.WorkloadBPerOp), fmt.Sprintf("planner_B@%d", p.Ranks))
	}
	if _, err := fmt.Sscanf(res.Title, "Scale: %d-rank", &out.RunRanks); err != nil {
		b.Fatalf("scale title %q names no rank count: %v", res.Title, err)
	}
	if err := out.WriteFile("BENCH_scale.json"); err != nil {
		b.Logf("could not record BENCH_scale.json: %v", err)
	}
}
