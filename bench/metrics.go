package main

import "encoding/json"

// metricDef names one metric the benchmark reports. The end-to-end ones
// carry the bound BENCHMARK.json fixes; the per-layer ones carry the
// prediction written down before anything was measured: which
// end-to-end metric the layer metric should move, on which workload, and
// where it must move nothing.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a number read from the simulated machine: it must be
	// identical on every repetition of a run and in any two runs of one
	// commit with one seed, so -compare allows it no difference at all.
	Exact bool
	Moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// Units. The virtual clock gets units of its own: a "virt_us" is a
// microsecond of simulated time, which no stopwatch on the host measured.
const (
	uS, uMS, uUS, uNS   = "s", "ms", "us", "ns"
	uVUS, uVMS, uVMBps  = "virt_us", "virt_ms", "virt_MB/s"
	uMB, uCount, uPct   = "MB", "count", "%"
	uGBps, uRatio, uAll = "GB/s", "ratio", "allocs/op"
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: uS, Better: lower, Bound: 0.25},
	{Name: "host_s", Unit: uS, Better: lower, Bound: 0.25},
	{Name: "host_alloc_MB", Unit: uMB, Better: lower, Bound: 0.03},
	{Name: "sim_latency_us", Unit: uVUS, Better: lower, Bound: 0.10, Exact: true},
	{Name: "sim_bandwidth_MBps", Unit: uVMBps, Better: higher, Bound: 0.03, Exact: true},
	{Name: "sim_op_us_gmean", Unit: uVUS, Better: lower, Bound: 0.05, Exact: true},
}

// The interaction table of bench/README.md, one row per group of layer
// metrics.
const (
	mvHandoff = "host_s on coll_scale1024 (most) and p2p_paper; no sim_* metric anywhere"
	mvCopy    = "host_s and host_alloc_MB on coll_triangle; not coll_scale1024; mpi.unpack_vector_GBps and nbc_hetero host_s must not fall"
	mvAlloc   = "host_alloc_MB, then host_s, on p2p_paper and coll_triangle"
	mvTune    = "setup_s on coll_triangle and nbc_hetero; not p2p_paper or coll_scale1024 (no autotune)"
	mvBuild   = "setup_s on coll_scale1024; not the 2-9-rank workloads"
	mvCore    = "sim_latency_us (virtual) / host_s (host) on p2p_paper; not sim_bandwidth_MBps"
	mvRelay   = "sim_bandwidth_MBps on coll_triangle; not p2p_paper or coll_scale1024 (route.relay_ranks = 0 or no credit waits)"
	mvTrunk   = "sim_bandwidth_MBps and sim_op_us_gmean on coll_scale1024; not p2p_paper"
	mvSched   = "sim_op_us_gmean on coll_triangle and coll_scale1024; not p2p_paper"
	mvUnexp   = "sim_latency_us and host_s on nbc_hetero; not the others (adi.unexpected near 0)"
	mvTrace   = "nothing with tracing off; bounds what the traced repetition distorts, on all workloads"
	mvPerPkt  = "compare it, not host_s, when a change alters netsim.packets"
	mvPaper   = "sim_latency_us / sim_bandwidth_MBps on p2p_paper: the paper's decomposition of them"
)

var perLayer = []metricDef{
	// Counts read from the program's public counters after a timed repetition.
	{Name: "netsim.packets", Unit: uCount, Better: lower, Exact: true, Moves: mvPerPkt},
	{Name: "netsim.wire_MB", Unit: uMB, Better: lower, Exact: true},
	{Name: "netsim.trunk_wait_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvTrunk},
	{Name: "netsim.trunk_peak", Unit: uCount, Better: lower, Exact: true, Moves: mvTrunk},
	{Name: "netsim.dropped", Unit: uCount, Better: lower, Exact: true},
	{Name: "madeleine.messages", Unit: uCount, Better: lower, Exact: true},
	{Name: "core.eager_msgs", Unit: uCount, Better: lower, Exact: true},
	{Name: "core.eager_MB", Unit: uMB, Better: lower, Exact: true},
	{Name: "core.rndv_msgs", Unit: uCount, Better: lower, Exact: true},
	{Name: "core.rndv_MB", Unit: uMB, Better: lower, Exact: true},
	{Name: "core.forwarded_msgs", Unit: uCount, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.relay_MB", Unit: uMB, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.relay_deferred", Unit: uCount, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.relay_busy_nacks", Unit: uCount, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.rndv_retries", Unit: uCount, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.relay_qpeak", Unit: uCount, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.relay_drops", Unit: uCount, Better: lower, Exact: true},
	{Name: "adi.posted", Unit: uCount, Better: lower, Exact: true},
	{Name: "adi.matched", Unit: uCount, Better: lower, Exact: true},
	{Name: "adi.unexpected", Unit: uCount, Better: lower, Exact: true, Moves: mvUnexp},
	{Name: "adi.unexpected_ratio", Unit: uRatio, Better: lower, Exact: true, Moves: mvUnexp},
	{Name: "mpi.ops", Unit: uCount, Better: higher, Exact: true},
	{Name: "mpi.tune_rows", Unit: uCount, Better: lower, Exact: true, Moves: mvTune},
	{Name: "mpi.autotune_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvTune},
	{Name: "mpi.autotune_host_s", Unit: uS, Better: lower, Moves: mvTune},
	{Name: "mpi.nbc_overlap_pct", Unit: uPct, Better: higher, Exact: true, Moves: mvUnexp},
	{Name: "cluster.build_host_s", Unit: uS, Better: lower, Moves: mvBuild},
	{Name: "cluster.init_host_s", Unit: uS, Better: lower, Moves: mvTune},
	{Name: "cluster.ranks", Unit: uCount, Better: higher, Exact: true},
	{Name: "cluster.sessions", Unit: uCount, Better: lower, Exact: true},
	{Name: "route.blocs", Unit: uCount, Better: lower, Exact: true},
	{Name: "route.relay_ranks", Unit: uCount, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "stack.host_raw_s", Unit: uS, Better: lower,
		Moves: "host_s before it is scaled to the reference loop's nominal speed; every other per-layer host metric is raw too"},
	{Name: "stack.host_us_per_packet", Unit: uUS, Better: lower, Moves: mvPerPkt},
	{Name: "stack.host_us_per_op", Unit: uUS, Better: lower},
	{Name: "stack.rank_virt_ms", Unit: uVMS, Better: lower, Exact: true,
		Moves: "ranks x elapsed virtual time: what the summed *_virt_ms of the traced repetition are read beside"},
	{Name: "runtime.ref_loop_ms", Unit: uMS, Better: lower,
		Moves: "nothing of the program's: the host's speed while the run was measured (75 ms when quiet)"},
	{Name: "runtime.mallocs_per_packet", Unit: uCount, Better: lower, Moves: mvAlloc},
	{Name: "runtime.gc_cycles", Unit: uCount, Better: lower, Moves: mvAlloc},
	{Name: "runtime.gc_pause_ms", Unit: uMS, Better: lower, Moves: mvAlloc},
	{Name: "runtime.peak_heap_MB", Unit: uMB, Better: lower, Moves: mvAlloc},
	{Name: "runtime.goroutines_peak", Unit: uCount, Better: lower, Moves: mvHandoff},

	// The traced repetition: the program's own tracer, and a CPU profile.
	{Name: "trace.events", Unit: uCount, Better: lower, Exact: true, Moves: mvTrace},
	{Name: "trace.overhead_pct", Unit: uPct, Better: lower, Moves: mvTrace},
	{Name: "core.pkt_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvCore},
	{Name: "core.rndv_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvCore},
	{Name: "core.relay_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "core.credit_wait_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvRelay},
	{Name: "mpi.sched_virt_ms", Unit: uVMS, Better: lower, Exact: true, Moves: mvSched},
	{Name: "mpi.sched_rounds", Unit: uCount, Better: lower, Exact: true, Moves: mvSched},
	{Name: "vtime.host_share_pct", Unit: uPct, Better: lower, Moves: mvHandoff},
	{Name: "netsim.host_share_pct", Unit: uPct, Better: lower},
	{Name: "madeleine.host_share_pct", Unit: uPct, Better: lower},
	{Name: "core.host_share_pct", Unit: uPct, Better: lower},
	{Name: "adi.host_share_pct", Unit: uPct, Better: lower},
	{Name: "mpi.host_share_pct", Unit: uPct, Better: lower, Moves: mvCopy},
	{Name: "cluster.host_share_pct", Unit: uPct, Better: lower},
	{Name: "route.host_share_pct", Unit: uPct, Better: lower},
	{Name: "trace.host_share_pct", Unit: uPct, Better: lower, Moves: mvTrace},
	{Name: "runtime.handoff_share_pct", Unit: uPct, Better: lower, Moves: mvHandoff},
	{Name: "runtime.gc_share_pct", Unit: uPct, Better: lower, Moves: mvAlloc},
	{Name: "runtime.memmove_share_pct", Unit: uPct, Better: lower, Moves: mvCopy},
	{Name: "runtime.fmt_share_pct", Unit: uPct, Better: lower, Moves: mvHandoff},

	// The paper's decomposition (virtual): raw Madeleine, ch_mad on top of
	// it, a second protocol beside it. Measured on the p2p grid.
	{Name: "madeleine.lat4B_tcp_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvPaper},
	{Name: "madeleine.lat4B_sisci_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvPaper},
	{Name: "madeleine.lat4B_bip_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvPaper},
	{Name: "madeleine.bw8M_tcp_MBps", Unit: uVMBps, Better: higher, Exact: true, Moves: mvPaper},
	{Name: "madeleine.bw8M_sisci_MBps", Unit: uVMBps, Better: higher, Exact: true, Moves: mvPaper},
	{Name: "madeleine.bw8M_bip_MBps", Unit: uVMBps, Better: higher, Exact: true, Moves: mvPaper},
	{Name: "core.overhead4B_tcp_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvCore},
	{Name: "core.overhead4B_sisci_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvCore},
	{Name: "core.overhead4B_bip_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvCore},
	{Name: "core.bw8M_ratio_tcp", Unit: uRatio, Better: higher, Exact: true, Moves: mvPaper},
	{Name: "core.bw8M_ratio_sisci", Unit: uRatio, Better: higher, Exact: true, Moves: mvPaper},
	{Name: "core.bw8M_ratio_bip", Unit: uRatio, Better: higher, Exact: true, Moves: mvPaper},
	{Name: "core.multiproto_gap4B_us", Unit: uVUS, Better: lower, Exact: true, Moves: mvPaper},
	{Name: "netsim.paper_err_max_pct", Unit: uPct, Better: lower, Exact: true, Moves: mvPaper},

	// Isolated probes (host clock): calls into one layer's public functions.
	{Name: "vtime.sleep_wake_ns", Unit: uNS, Better: lower, Moves: mvHandoff},
	{Name: "vtime.sem_handoff_ns", Unit: uNS, Better: lower, Moves: mvHandoff},
	{Name: "vtime.spawn_join_ns", Unit: uNS, Better: lower, Moves: mvHandoff},
	{Name: "vtime.timer_cb_ns", Unit: uNS, Better: lower, Moves: mvHandoff},
	{Name: "vtime.sleep_allocs", Unit: uAll, Better: lower, Moves: mvAlloc},
	{Name: "netsim.send_ns", Unit: uNS, Better: lower},
	{Name: "netsim.send_trunk_ns", Unit: uNS, Better: lower, Moves: mvTrunk},
	{Name: "netsim.send_allocs", Unit: uAll, Better: lower, Moves: mvAlloc},
	{Name: "madeleine.roundtrip4B_ns", Unit: uNS, Better: lower, Moves: mvCore},
	{Name: "madeleine.roundtrip64K_ns", Unit: uNS, Better: lower},
	{Name: "madeleine.msg_allocs", Unit: uAll, Better: lower, Moves: mvAlloc},
	{Name: "core.eager4B_ns", Unit: uNS, Better: lower, Moves: mvCore},
	{Name: "core.rndv64K_ns", Unit: uNS, Better: lower},
	{Name: "core.relay64K_ns", Unit: uNS, Better: lower, Moves: mvRelay},
	{Name: "core.overhead4B_host_ns", Unit: uNS, Better: lower, Moves: mvCore},
	{Name: "core.msg_allocs", Unit: uAll, Better: lower, Moves: mvAlloc},
	{Name: "adi.match_depth1_ns", Unit: uNS, Better: lower},
	{Name: "adi.match_depth1024_ns", Unit: uNS, Better: lower},
	{Name: "adi.unexpected_depth1024_ns", Unit: uNS, Better: lower, Moves: mvUnexp},
	{Name: "mpi.pack_contig_GBps", Unit: uGBps, Better: higher, Moves: mvCopy},
	{Name: "mpi.unpack_contig_GBps", Unit: uGBps, Better: higher, Moves: mvCopy},
	{Name: "mpi.pack_vector_GBps", Unit: uGBps, Better: higher, Moves: mvCopy},
	{Name: "mpi.unpack_vector_GBps", Unit: uGBps, Better: higher, Moves: mvCopy},
	{Name: "mpi.reduce_f64_GBps", Unit: uGBps, Better: higher},
	{Name: "route.plan256_us", Unit: uUS, Better: lower, Moves: mvBuild},
	{Name: "route.plan1024_us", Unit: uUS, Better: lower, Moves: mvBuild},
	{Name: "route.resolve1024_us", Unit: uUS, Better: lower, Moves: mvBuild},
	{Name: "cluster.build9_ms", Unit: uMS, Better: lower, Moves: mvBuild},
	{Name: "cluster.build1024_ms", Unit: uMS, Better: lower, Moves: mvBuild},
	{Name: "trace.span_ns", Unit: uNS, Better: lower, Moves: mvTrace},
	{Name: "trace.nil_span_ns", Unit: uNS, Better: lower, Moves: mvTrace},
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file the
// driver reads and the metrics the program prints cannot drift apart
// (bench_test.go compares them).
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}
