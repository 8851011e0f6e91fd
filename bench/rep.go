package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// point is one virtual-clock measurement: the per-operation time of one
// series at one payload size, read from the simulated clock on rank 0.
type point struct {
	Series string         `json:"series"`
	Size   int            `json:"size"`
	PerOp  vtime.Duration `json:"virt_ns_per_op"`
}

// rep is one repetition of a workload: every session it needs, built
// fresh. The workload adds to it while it runs; the runner reads it once
// the repetition is over.
type rep struct {
	spans  *recorder     // nil on the timed repetitions
	tracer *trace.Tracer // nil on the timed repetitions

	// corrupt, when set, damages each checked buffer before it is
	// compared: the smoke test's proof that a wrong byte is counted.
	corrupt func(buf []byte)

	// Host clock, summed over the repetition's sessions.
	build, init, measured time.Duration
	sessions              int

	points    []point
	windows   []*window // the batches of the session that is running
	attempted int       // operations issued
	failed    int       // operations that returned an error or left a wrong byte
	firstFail string

	counts         map[string]float64 // layer counters, summed over sessions
	mpiOps         int                // MPI calls the workload issued, all ranks
	goroutinesPeak int
}

func newRep() *rep { return &rep{counts: make(map[string]float64)} }

// op counts one finished operation; a non-empty why marks it failed.
func (r *rep) op(why string) {
	r.attempted++
	if why != "" {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = why
		}
	}
}

// check compares a received buffer with what the seeded pattern says it
// must hold and returns "" when they agree.
func (r *rep) check(what string, got, want []byte) string {
	if r.corrupt != nil {
		r.corrupt(got)
	}
	if bytes.Equal(got, want) {
		return ""
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return fmt.Sprintf("%s: wrong byte at offset %d of %d", what, i, len(want))
		}
	}
	return fmt.Sprintf("%s: %d bytes received, %d expected", what, len(got), len(want))
}

func (r *rep) add(series string, size int, perOp vtime.Duration) {
	r.points = append(r.points, point{series, size, perOp})
}

// sample notes the process-wide goroutine count; called at batch
// boundaries, where every simulated task of the session is alive.
func (r *rep) sample() {
	if n := runtime.NumGoroutine(); n > r.goroutinesPeak {
		r.goroutinesPeak = n
	}
}

// window is the virtual-time interval of one batch: from rank 0 leaving
// the opening barrier to the last rank finishing its last operation. A
// rooted collective returns early on the ranks near the root, so rank 0's
// own clock would time its distance from the root, not the operation.
type window struct {
	series     string
	size, n    int
	start, end vtime.Time
}

// windowFor returns the window every rank of the session shares for a
// batch; the ranks visit the batches in one order, so the first to arrive
// creates it in that order.
func (r *rep) windowFor(series string, size, n int) *window {
	for _, w := range r.windows {
		if w.series == series && w.size == size {
			return w
		}
	}
	w := &window{series: series, size: size, n: n}
	r.windows = append(r.windows, w)
	return w
}

// batch runs n closed-loop operations after an opening barrier and
// records the per-operation time of its window under (series, size).
// Every rank calls it with the same arguments.
func (r *rep) batch(sess *cluster.Session, rank int, comm *mpi.Comm,
	series string, size, n int, op func(i int) error) error {
	w := r.windowFor(series, size, n)
	if err := comm.Barrier(); err != nil {
		return err
	}
	sp := -1
	if rank == 0 {
		r.sample()
		sp = r.spans.begin(fmt.Sprintf("batch:%s/%d", series, size))
		w.start = sess.S.Now()
	}
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("%s/%d #%d: %w", series, size, i, err)
		}
	}
	if now := sess.S.Now(); now > w.end {
		w.end = now
	}
	if rank == 0 {
		r.spans.end(sp)
	}
	return nil
}

// session builds one simulated job from topo and runs body on every rank
// between two barriers. It splits the host clock at the two places the
// set-up metric needs: the return of cluster.Build, and rank 0 leaving
// the first barrier after MPI_Init (the autotune sweep included). What
// follows the closing barrier — Finalize and the device audit — is in
// neither metric; it has a span.
func (r *rep) session(label string, topo cluster.Topology,
	body func(sess *cluster.Session, rank int, comm *mpi.Comm) error) error {
	topo.Trace = r.tracer
	whole := r.spans.begin("session:" + label)
	defer r.spans.end(whole)

	t0 := time.Now()
	sp := r.spans.begin("cluster.Build")
	sess, err := cluster.Build(topo)
	r.spans.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	built := time.Now()

	var ready, closed time.Time
	runSpan := r.spans.begin("Session.Run")
	phase := r.spans.begin("MPI_Init")
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			r.counts["mpi.autotune_virt_ms"] += float64(sess.S.Now()) // ns until finish
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			ready = time.Now()
			r.spans.end(phase)
		}
		if err := body(sess, rank, comm); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			closed = time.Now()
			r.sample()
			phase = r.spans.begin("Finalize+audit")
		}
		return nil
	})
	r.spans.end(runSpan)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	for _, w := range r.windows {
		r.add(w.series, w.size, w.end.Sub(w.start)/vtime.Duration(w.n))
	}
	r.windows = nil
	r.build += built.Sub(t0)
	r.init += ready.Sub(built)
	r.measured += closed.Sub(ready)
	r.sessions++
	r.collect(sess)
	return nil
}

// collect reads the program's public counters once a session is over.
func (r *rep) collect(sess *cluster.Session) {
	c := r.counts
	for _, net := range sess.Networks {
		r.collectNet(net)
	}
	for _, m := range sess.Metrics.Snapshot() {
		switch m.Name {
		case "eager.msgs":
			c["core.eager_msgs"] += float64(m.Value)
		case "eager.bytes":
			c["core.eager_MB"] += float64(m.Value)
		case "rndv.msgs":
			c["core.rndv_msgs"] += float64(m.Value)
		case "rndv.bytes":
			c["core.rndv_MB"] += float64(m.Value)
		}
	}
	relayRanks := 0
	for _, rk := range sess.Ranks {
		c["adi.posted"] += float64(rk.Eng.NPosted)
		c["adi.matched"] += float64(rk.Eng.NMatched)
		c["adi.unexpected"] += float64(rk.Eng.NUnexpected)
		d := rk.ChMad
		if d == nil {
			continue
		}
		for _, ch := range d.Channels() {
			c["madeleine.messages"] += float64(ch.Messages)
		}
		c["core.forwarded_msgs"] += float64(d.NForwarded)
		c["core.relay_MB"] += float64(d.RelayBytes)
		c["core.relay_deferred"] += float64(d.NRelayDeferred)
		c["core.relay_busy_nacks"] += float64(d.NRelayBusy)
		c["core.rndv_retries"] += float64(d.NRndvRetries)
		c["core.relay_drops"] += float64(d.NRelayDrops)
		c["core.relay_qpeak"] = math.Max(c["core.relay_qpeak"], float64(d.RelayQueuePeak))
		if d.NForwarded > 0 {
			relayRanks++
		}
	}
	c["route.relay_ranks"] += float64(relayRanks)
	c["cluster.ranks"] = math.Max(c["cluster.ranks"], float64(len(sess.Ranks)))
	if plan := sess.RoutePlan(); plan != nil {
		c["route.blocs"] = math.Max(c["route.blocs"], float64(plan.BlocCount()))
	}
	c["mpi.tune_rows"] += float64(len(sess.Ranks[0].MPI.TuneSnapshot()))
	c["stack.rank_virt_ms"] += float64(len(sess.Ranks)) * float64(sess.S.Now())
}

// rawScale converts the counters that collect sums in bytes or in
// nanoseconds of virtual time into their reported unit. Summing whole
// numbers and scaling once keeps the result independent of the order the
// sessions' networks are visited in.
var rawScale = map[string]float64{
	"netsim.wire_MB":            1.0 / netsim.MB,
	"core.eager_MB":             1.0 / netsim.MB,
	"core.rndv_MB":              1.0 / netsim.MB,
	"core.relay_MB":             1.0 / netsim.MB,
	"netsim.trunk_wait_virt_ms": 1e-6,
	"mpi.autotune_virt_ms":      1e-6,
	"stack.rank_virt_ms":        1e-6,
}

// finish scales the raw sums; the runner calls it once per repetition.
func (r *rep) finish() {
	for name, k := range rawScale {
		r.counts[name] *= k
	}
	r.counts["mpi.ops"] = float64(r.mpiOps)
	if m := r.counts["adi.matched"]; m > 0 {
		r.counts["adi.unexpected_ratio"] = r.counts["adi.unexpected"] / m
	}
}

func (r *rep) collectNet(net *netsim.Network) {
	c := r.counts
	c["netsim.packets"] += float64(net.Stats.Packets)
	c["netsim.wire_MB"] += float64(net.Stats.Bytes)
	c["netsim.dropped"] += float64(net.Stats.Dropped)
	c["netsim.trunk_wait_virt_ms"] += float64(net.Stats.TrunkQueueDelay)
	c["netsim.trunk_peak"] = math.Max(c["netsim.trunk_peak"], float64(net.Stats.TrunkPeak))
}

// pattern is the seeded payload every workload sends windows of. Rank
// r's buffer for operation i is a window of the shared byte (or
// float64) array whose start depends on i and r, so consecutive
// operations and neighbouring ranks never send the same bytes, no buffer
// is generated inside the timed window, and a stale or misplaced block
// shows as a wrong byte. The float64 values are small integers: their
// sums are exact in any order, so a reduction has one right answer.
type pattern struct {
	bytes  []byte
	floats []float64
	fbytes []byte // floats as little-endian wire bytes
}

const (
	rankStride = 251 // window shift between neighbouring ranks, in elements
	opStride   = 17  // window shift between consecutive operations
	opSlots    = 64  // operation shifts before the window wraps
)

// newPattern makes a pattern whose windows may be up to maxBytes long for
// up to ranks ranks.
func newPattern(rng *prng, maxBytes, ranks int) *pattern {
	slack := ranks*rankStride + opSlots*opStride + 8
	p := &pattern{bytes: make([]byte, maxBytes+slack), floats: make([]float64, maxBytes/8+slack)}
	rng.fill(p.bytes)
	for i := range p.floats {
		p.floats[i] = float64(rng.next() % 1000)
	}
	p.fbytes = mpi.Float64Bytes(p.floats)
	return p
}

func winStart(i, rank int) int { return (i%opSlots)*opStride + rank*rankStride }

// window is rank's n-byte buffer for operation i.
func (p *pattern) window(i, rank, n int) []byte {
	s := winStart(i, rank)
	return p.bytes[s : s+n : s+n]
}

// fwindow is rank's buffer of n float64 for operation i, as wire bytes.
func (p *pattern) fwindow(i, rank, n int) []byte {
	s := 8 * winStart(i, rank)
	return p.fbytes[s : s+8*n : s+8*n]
}

// fsum is the element-wise sum over ranks 0..ranks-1 of their float64
// windows for operation i, as wire bytes.
func (p *pattern) fsum(i, ranks, n int) []byte {
	out := make([]float64, n)
	for r := 0; r < ranks; r++ {
		s := winStart(i, r)
		for k := range out {
			out[k] += p.floats[s+k]
		}
	}
	return mpi.Float64Bytes(out)
}

// prng is a splitmix64 generator: the benchmark's only source of
// randomness, seeded from -seed, used while the inputs are made and never
// while the program runs.
type prng struct{ s uint64 }

func newPRNG(seed int64, stream string) *prng {
	p := &prng{s: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567}
	for _, c := range []byte(stream) {
		p.s = (p.s ^ uint64(c)) * 0x100000001B3
	}
	return p
}

func (p *prng) next() uint64 {
	p.s += 0x9E3779B97F4A7C15
	z := p.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

func (p *prng) fill(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		v := p.next()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		b[i] = byte(p.next())
	}
}

// perm is a seeded permutation of 0..n-1.
func (p *prng) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
