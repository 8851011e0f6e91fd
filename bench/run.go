package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// workload is one named set of inputs. prepare makes them from the seed —
// payload bytes, Bcast roots, the order the grid is visited in, message
// sizes and compute slices — and the program only ever sees the result.
type workload struct {
	name    string
	why     string
	prepare func(seed int64, smoke bool) runner
}

type runner interface {
	// repetition builds every session of the workload fresh, runs it and
	// checks its buffers.
	repetition(r *rep) error
	// headline reads the three virtual-clock end-to-end metrics off the
	// repetition's points.
	headline(r *rep) (latencyUS, bandwidthMBps, opGmeanUS float64)
	// autotuned returns the topology whose sessions run the MPI_Init
	// autotune sweep, nil when the workload has none.
	autotuned() *cluster.Topology
}

var workloads = []workload{
	{"p2p_paper", "2-rank ping-pong grid of the paper's section 5: vtime, netsim, madeleine, ch_mad and adi do all the work; route, relay, collectives and the autotuner none", prepareP2P},
	{"coll_triangle", "9 ranks on three bridged islands, autotuned collectives up to 1 MiB: relay, striping, credit windows, multi-leader schedules, payload copies and the MPI_Init sweep", prepareTriangle},
	{"coll_scale1024", "1024 ranks, tiny payloads: scheduler queues, goroutine hand-off, the trunk arbiter, bloc routing and a 1024-rank Build; payload copying is negligible", prepareScale},
	{"nbc_hetero", "8 ranks on four device classes: strided datatypes, Iallreduce overlapped with compute, unexpected messages - the general paths a fast path must not tax", prepareNBC},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	seed    int64
	seconds float64
	trace   bool // also run the traced repetitions and the probes
	// layersOnly: the run is asked for the per-layer metrics alone, so the
	// untraced repetitions are only the base of trace.overhead_pct and get
	// half the time; the traced repetitions and the probes get the rest.
	layersOnly bool
	reps       int  // timed repetitions; 0 = as many as fit in seconds
	smoke      bool // shrunken grids, no warm-up
	outDir     string
	corrupt    func(buf []byte) // test hook, see rep.corrupt
}

// The fewest timed repetitions a median is taken over.
const (
	minReps           = 5
	minRepsLayersOnly = 2
)

// value is one reported metric. Host-clock metrics carry the summary of
// their samples; numbers from the simulated machine are exact and carry
// none.
type value struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Reps         int              `json:"timed_repetitions"`
	Attempted    int              `json:"ops_attempted"`
	Failed       int              `json:"ops_failed"`
	FirstFailure string           `json:"first_failure,omitempty"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	// Points are the virtual-clock series the sim_* metrics are means of,
	// in the order the grid was visited: which point moved, when one does.
	Points []point `json:"points"`
}

// timedRep is what the runner keeps of one untraced repetition.
type timedRep struct {
	*rep
	allocMB, mallocs, gcCycles, gcPauseMS float64
	lat, bw, gm                           float64
}

func runRep(run runner, r *rep) (*timedRep, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := run.repetition(r); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	r.finish()
	t := &timedRep{rep: r,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / netsim.MB,
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	t.lat, t.bw, t.gm = run.headline(r)
	return t, nil
}

// sameVirtual reports the first difference between two repetitions'
// numbers from the simulated machine. There must be none: the simulator
// is deterministic, so a difference is a defect, not noise.
func sameVirtual(a, b *timedRep) string {
	if len(a.points) != len(b.points) {
		return fmt.Sprintf("%d points, then %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			return fmt.Sprintf("point %v, then %v", a.points[i], b.points[i])
		}
	}
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		va, oka := a.counts[d.Name]
		vb, okb := b.counts[d.Name]
		if oka != okb || va != vb {
			return fmt.Sprintf("%s = %v, then %v", d.Name, va, vb)
		}
	}
	return ""
}

func runWorkload(w workload, opt options) (*result, error) {
	runtime.GOMAXPROCS(2)
	run := w.prepare(opt.seed, opt.smoke)
	newRepFor := func() *rep {
		r := newRep()
		r.corrupt = opt.corrupt
		return r
	}
	if !opt.smoke {
		// One untimed repetition: heap grown, pages touched, caches warm.
		if _, err := runRep(run, newRepFor()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	window := time.Duration(opt.seconds * float64(time.Second))
	floor := minReps
	if opt.layersOnly {
		window, floor = window/2, minRepsLayersOnly
	}
	var reps []*timedRep
	var refs []float64 // reference loop times, one before and one after each repetition
	ref := func() {
		if !opt.smoke {
			runtime.GC() // the loop allocates: start it from a collected heap every time
			refs = append(refs, refLoop().Seconds())
		}
	}
	start := time.Now()
	ref()
	for n := 0; ; n++ {
		if opt.reps > 0 {
			if n >= opt.reps {
				break
			}
		} else if n >= floor && time.Since(start) >= window {
			break
		}
		t, err := runRep(run, newRepFor())
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", n, err)
		}
		if len(reps) > 0 {
			if diff := sameVirtual(reps[0], t); diff != "" {
				return nil, fmt.Errorf("repetition %d differs from repetition 0 on the virtual clock: %s", n, diff)
			}
		}
		reps = append(reps, t)
		ref()
	}
	// The host-clock end-to-end metrics are reported at the reference
	// loop's nominal speed (calib.go); a smoke run measures nothing.
	speed, refMS := 1.0, 0.0
	if len(refs) > 0 {
		speed = refNominal.Seconds() / median(refs)
		refMS = median(refs) * 1e3
	}

	res := &result{Workload: w.name, Seed: opt.seed, Reps: len(reps)}
	first := reps[0]
	res.Attempted, res.Failed, res.FirstFailure = first.attempted, first.failed, first.firstFail
	for _, t := range reps[1:] {
		if t.failed > res.Failed {
			res.Failed, res.FirstFailure = t.failed, t.firstFail
		}
	}
	res.Points = first.points
	for _, v := range []float64{first.lat, first.bw, first.gm} {
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("a virtual-clock metric is not a positive number (latency %v, bandwidth %v, gmean %v)",
				first.lat, first.bw, first.gm)
		}
	}

	col := func(f func(*timedRep) float64) []float64 { return column(reps, f) }
	hostMetric := func(unit string, samples []float64) value {
		s := summarize(samples)
		return value{Value: s.Median, Unit: unit, Samples: &s}
	}
	setup := col(func(t *timedRep) float64 { return (t.build + t.init).Seconds() })
	host := col(func(t *timedRep) float64 { return t.measured.Seconds() })
	scaled := func(samples []float64) []float64 {
		out := make([]float64, len(samples))
		for i, v := range samples {
			out[i] = v * speed
		}
		return out
	}
	res.EndToEnd = map[string]value{
		"setup_s":            hostMetric(uS, scaled(setup)),
		"host_s":             hostMetric(uS, scaled(host)),
		"host_alloc_MB":      hostMetric(uMB, col(func(t *timedRep) float64 { return t.allocMB })),
		"sim_latency_us":     {Value: first.lat, Unit: uVUS},
		"sim_bandwidth_MBps": {Value: first.bw, Unit: uVMBps},
		"sim_op_us_gmean":    {Value: first.gm, Unit: uVUS},
	}
	if opt.trace {
		var err error
		if res.PerLayer, err = layerMetrics(w, run, opt, reps, refMS, newRepFor); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// column is one number of every repetition.
func column(reps []*timedRep, f func(*timedRep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, t := range reps {
		out[i] = f(t)
	}
	return out
}

// layerMetrics produces every per-layer metric: what the untraced
// repetitions' counters hold, then the traced repetitions, the bring-up
// without autotune, the paper's decomposition and the probes.
func layerMetrics(w workload, run runner, opt options, reps []*timedRep, refMS float64,
	newRepFor func() *rep) (map[string]value, error) {
	first := reps[0]
	col := func(f func(*timedRep) float64) []float64 { return column(reps, f) }
	layer := map[string]float64{}
	for name, v := range first.counts {
		layer[name] = v
	}
	packets := first.counts["netsim.packets"]
	hostMed := median(col(func(t *timedRep) float64 { return t.measured.Seconds() }))
	setupMed := median(col(func(t *timedRep) float64 { return (t.build + t.init).Seconds() }))
	layer["cluster.build_host_s"] = median(col(func(t *timedRep) float64 { return t.build.Seconds() }))
	layer["cluster.init_host_s"] = median(col(func(t *timedRep) float64 { return t.init.Seconds() }))
	layer["cluster.sessions"] = float64(first.sessions)
	layer["stack.host_raw_s"] = hostMed
	layer["runtime.ref_loop_ms"] = refMS
	layer["stack.host_us_per_packet"] = hostMed * 1e6 / packets
	layer["stack.host_us_per_op"] = hostMed * 1e6 / float64(first.attempted)
	layer["runtime.mallocs_per_packet"] = median(col(func(t *timedRep) float64 { return t.mallocs })) / packets
	layer["runtime.gc_cycles"] = median(col(func(t *timedRep) float64 { return t.gcCycles }))
	layer["runtime.gc_pause_ms"] = median(col(func(t *timedRep) float64 { return t.gcPauseMS }))
	layer["runtime.goroutines_peak"] = median(col(func(t *timedRep) float64 { return float64(t.goroutinesPeak) }))

	spans := newRecorder()
	profileFor := minProfiled
	if opt.smoke {
		profileFor = minProfiled / 8
	}
	if err := tracedRep(run, newRepFor, spans, profileFor, hostMed, first, layer); err != nil {
		return nil, err
	}
	layer["mpi.autotune_host_s"] = 0
	if topo := run.autotuned(); topo != nil {
		// What the MPI_Init sweep costs on the host: the median bring-up
		// minus one bring-up of the same topology without it.
		topo.Autotune = false
		r := newRep()
		r.spans = spans
		err := r.session("bring-up without autotune", *topo,
			func(*cluster.Session, int, *mpi.Comm) error { return nil })
		if err != nil {
			return nil, err
		}
		layer["mpi.autotune_host_s"] = setupMed - (r.build + r.init).Seconds()
	}
	if w.name != "p2p_paper" {
		// Every per-layer metric is reported on every workload, so on the
		// others the paper's decomposition comes from a short pass over the
		// p2p grid (4 round trips per size).
		r := newRep()
		r.spans = spans
		sp := spans.begin("paper decomposition")
		err := prepareP2P(opt.seed, true).repetition(r)
		spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("paper decomposition: %w", err)
		}
		for _, name := range paperMetricNames() {
			layer[name] = r.counts[name]
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["runtime.peak_heap_MB"] = float64(ms.HeapSys) / netsim.MB

	budget := time.Duration(opt.seconds * float64(time.Second) / 2 / float64(len(probes)))
	if opt.smoke {
		budget = time.Millisecond
	}
	probed, err := runProbes(budget, spans)
	if err != nil {
		return nil, err
	}
	for name, v := range probed {
		layer[name] = v
	}
	if opt.outDir != "" {
		if err := spans.write(opt.outDir, w.name); err != nil {
			return nil, err
		}
	}

	out := make(map[string]value, len(perLayer))
	var missing []string
	for _, d := range perLayer {
		v, ok := layer[d.Name]
		if !ok {
			// A counter nothing added to reads zero; only a metric that
			// has to be computed can be missing.
			if d.Exact {
				v, ok = 0, true
			}
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	return out, nil
}

const minProfiled = 2 * time.Second

// tracedRep runs repetitions with the program's tracer on and a CPU
// profile being taken, and adds what they show to layer: event
// counts, virtual busy time by span kind, and where the host CPU went.
// The end-to-end numbers never come from these repetitions.
func tracedRep(run runner, newRepFor func() *rep, spans *recorder, profileFor time.Duration,
	hostMed float64, untraced *timedRep, layer map[string]float64) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	// The profiler samples 100 times a second, so short repetitions are
	// repeated until two seconds of them have been sampled. The first one
	// supplies the trace.
	var r *rep
	var traced []float64
	for t0 := time.Now(); len(traced) == 0 || time.Since(t0) < profileFor; {
		tr := newRepFor()
		tr.spans, tr.tracer = spans, trace.New(nil)
		spans.rep = len(traced) + 1
		sp := spans.begin("traced repetition")
		t, err := runRep(run, tr)
		spans.end(sp)
		if err == nil {
			if diff := sameVirtual(untraced, t); diff != "" {
				err = fmt.Errorf("differs from the untraced ones on the virtual clock: %s", diff)
			}
		}
		if err != nil {
			pprof.StopCPUProfile()
			return fmt.Errorf("traced repetition: %w", err)
		}
		traced = append(traced, t.measured.Seconds())
		if r == nil {
			r = tr
		}
	}
	pprof.StopCPUProfile()
	spans.rep = 0
	layer["trace.overhead_pct"] = 100 * (median(traced)/hostMed - 1)

	events := r.tracer.Events()
	layer["trace.events"] = float64(len(events))
	var ns [7]int64 // virtual busy time by span kind
	rounds := 0
	for _, ev := range events {
		if ev.Dur <= 0 {
			continue
		}
		if ev.Kind == trace.KSched {
			// A collective is one span around the spans of its rounds;
			// only the rounds are summed.
			if ev.Name != "sched.round" {
				continue
			}
			rounds++
		}
		ns[ev.Kind] += int64(ev.Dur)
	}
	layer["core.pkt_virt_ms"] = float64(ns[trace.KPkt]) / 1e6
	layer["core.rndv_virt_ms"] = float64(ns[trace.KRndv]) / 1e6
	layer["core.relay_virt_ms"] = float64(ns[trace.KRelay]) / 1e6
	layer["core.credit_wait_virt_ms"] = float64(ns[trace.KCredit]) / 1e6
	layer["mpi.sched_virt_ms"] = float64(ns[trace.KSched]) / 1e6
	layer["mpi.sched_rounds"] = float64(rounds)

	shares, _, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for name, v := range shares {
		layer[name] = v
	}
	return nil
}
