// The MPI_Init autotuner: instead of trusting the analytic thresholds in
// topology.go, Autotune *times* the candidate schedule compilers on the
// live topology — contention arbiter, rank placement, elected switch
// points and all — over a small message-size sweep, and records the
// measured crossover points in a per-(operation, algorithm) tuning table
// (MPICH coll_tuned's measured decision files, run at init instead of
// offline).
//
// Every rank participates in every timed run (the sweep is itself a
// sequence of collectives, so the usual same-order rule applies), but only
// rank 0's clock decides: it builds the crossover table and broadcasts it,
// so all ranks install byte-identical tables and future chooseAlgo calls
// agree everywhere. The whole sweep is deterministic in the topology —
// virtual time has no noise — which the determinism test pins down.
package mpi

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"mpichmad/internal/adi"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// tuneSizes is the sweep: one size per decade of the latency-, mixed- and
// bandwidth-dominated regimes. A crossover between adjacent sweep points is
// placed where the two winners' readings cross, each taken as a straight
// line between the two sizes (crossoverRows).
var tuneSizes = []int{1 << 10, 16 << 10, 256 << 10}

// switchTuneSizes is the per-device-class eager/rendez-vous probe sweep:
// sizes bracketing every native switch point in the zoo (BIP 7K, SCI 8K,
// smp 16K, TCP 64K), so the measured crossover can land on either side of
// the calibrated one.
var switchTuneSizes = []int{2 << 10, 8 << 10, 32 << 10, 128 << 10}

// switchPointOp is the TuneChoice.Op marker for a per-device-class
// eager->rendez-vous threshold row: MaxBytes is the threshold, Algo names
// the device class.
const switchPointOp = "SwitchPoint"

// deviceClassNames lists the per-link device-mux classes in tier order
// (mirroring internal/route's DeviceClass taxonomy); the canonical
// encoding order for per-class threshold rows.
var deviceClassNames = []string{"self", "smp", "san", "wan"}

// ClassProbe names the representative ordered rank pair the MPI_Init
// autotuner times to measure one device class's eager/rendez-vous
// crossover. The cluster wiring installs the same probe list on every
// rank (SetClassProbes); during Autotune all ranks step through the list
// in lockstep while ranks A and B run the timed ping-pongs.
type ClassProbe struct {
	Class string
	A, B  int
}

// SetClassProbes installs the per-class autotuner probe pairs; every rank
// must receive the identical list (the probe sweep is collective).
func (p *Process) SetClassProbes(probes []ClassProbe) {
	p.classProbes = append([]ClassProbe(nil), probes...)
}

// ClassSwitchPoints returns the measured per-device-class eager
// thresholds installed by Autotune, nil when none.
func (p *Process) ClassSwitchPoints() map[string]int { return maps.Clone(p.classSwitch) }

// installClassSwitch records one measured per-class threshold and pushes
// it into every device that accepts per-class tuning (adi.ClassTuner).
func (p *Process) installClassSwitch(class string, bytes int) {
	if p.classSwitch == nil {
		p.classSwitch = make(map[string]int)
	}
	p.classSwitch[class] = bytes
	for _, d := range p.devices {
		if ct, ok := d.(adi.ClassTuner); ok {
			ct.SetClassSwitchPoint(class, bytes)
		}
	}
}

// tuneRow is one bracket of the measured table: use algo for payloads up
// to maxBytes (math.MaxInt on the last, open bracket).
type tuneRow struct {
	maxBytes int
	algo     collAlgo
}

// tuneTable is the measured crossover table, indexed by operation.
// Operations without an entry (nothing to choose between on this
// topology) fall back to the analytic defaults.
type tuneTable struct {
	rows map[collKind][]tuneRow
}

// lookup returns the measured algorithm bracket for a payload size.
func (tt *tuneTable) lookup(kind collKind, nBytes int) (collAlgo, bool) {
	for _, r := range tt.rows[kind] {
		if nBytes <= r.maxBytes {
			return r.algo, true
		}
	}
	return 0, false
}

// TuneChoice is one exported row of the autotuned table (TuneSnapshot).
type TuneChoice struct {
	// Op is the MPI operation name ("Allreduce", "Bcast", ...), or
	// "SwitchPoint" for a per-device-class eager threshold row.
	Op string
	// MaxBytes is the bracket's upper payload bound; math.MaxInt marks
	// the open last bracket. For a "SwitchPoint" row it is the measured
	// eager->rendez-vous threshold of the class.
	MaxBytes int
	// Algo names the selected algorithm: "flat", "2level", "2level-seg",
	// "ring", "2level-ring", "2level-multi". For a "SwitchPoint" row it
	// names the device class ("smp", "san", "wan").
	Algo string
}

// TuneSnapshot returns the installed crossover table in deterministic
// (operation, then size) order, followed by the measured per-device-class
// switch points in class-tier order; nil when Autotune has not run.
func (p *Process) TuneSnapshot() []TuneChoice {
	if p.tuned == nil && p.classSwitch == nil {
		return nil
	}
	var out []TuneChoice
	if p.tuned != nil {
		for k := collKind(0); k < numCollKinds; k++ {
			for _, r := range p.tuned.rows[k] {
				out = append(out, TuneChoice{Op: collKinds[k].name, MaxBytes: r.maxBytes, Algo: collAlgos[r.algo].name})
			}
		}
	}
	for _, c := range deviceClassNames {
		if thr, ok := p.classSwitch[c]; ok {
			out = append(out, TuneChoice{Op: switchPointOp, MaxBytes: thr, Algo: c})
		}
	}
	return out
}

// Autotune runs the MPI_Init tuning sweep over MPI_COMM_WORLD: every
// candidate algorithm of every tunable operation is compiled and executed
// at each sweep size, rank 0 picks the fastest per (operation, size) and
// broadcasts the resulting crossover table, which chooseAlgo then
// consults ahead of the analytic defaults. Collective: every rank must
// call it at the same point (the cluster session's Topology.Autotune flag
// does so right before the rank main).
func (p *Process) Autotune() error {
	return p.World.autotune()
}

// runTuneOp executes one probe collective of ~nBytes total payload with
// whatever algorithm is currently forced.
func (c *Comm) runTuneOp(kind collKind, nBytes int) error {
	n := c.Size()
	per := max(nBytes/n, 1)
	// The probe's own buffers are leased from the rank's list and home
	// again when it returns: what they hold cannot move virtual time.
	probe := func(sendLen, recvLen int, run func(send, recv []byte) error) error {
		send, recv := c.p.Eng.Bufs.Get(sendLen), c.p.Eng.Bufs.Get(recvLen)
		defer send.Release()
		defer recv.Release()
		return run(send.B, recv.B)
	}
	switch kind {
	case kindBcast:
		return probe(nBytes, 0, func(buf, _ []byte) error { return c.Bcast(buf, nBytes, Byte, 0) })
	case kindAllreduce:
		return probe(nBytes, nBytes, func(in, out []byte) error { return c.Allreduce(in, out, nBytes, Byte, OpMax) })
	case kindAllgather:
		// Iallgather dispatches on the per-rank contribution, so the sweep
		// size is the per-rank payload here (not divided by n) to keep the
		// bracket keys aligned with the dispatch metric.
		return probe(nBytes, nBytes*n, func(in, out []byte) error { return c.Allgather(in, out, nBytes, Byte) })
	case kindAlltoall:
		return probe(per*n, per*n, func(send, recv []byte) error { return c.Alltoall(send, recv, per, Byte) })
	case kindReduceScatter:
		return probe(per*n, per, func(send, recv []byte) error { return c.ReduceScatter(send, recv, per, Byte, OpMax) })
	default:
		return fmt.Errorf("mpi: autotune: operation %q is not tunable", collKinds[kind].name)
	}
}

// timeAlgo measures one (operation, algorithm, size) probe: barrier in,
// run, barrier out; the bracketing barriers keep ranks in lockstep so the
// reading is the collective's full completion time.
func (c *Comm) timeAlgo(kind collKind, a collAlgo, nBytes int) (vtime.Duration, error) {
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	start := c.p.M.S.Now()
	c.p.forcedAlgo = &a
	err := c.runTuneOp(kind, nBytes)
	c.p.forcedAlgo = nil
	if err != nil {
		return 0, err
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	return c.p.M.S.Now().Sub(start), nil
}

func (c *Comm) autotune() error {
	type probe struct {
		kind       collKind
		candidates []collAlgo
		readings   [][]vtime.Duration // [sweep size][candidate]
	}
	var probes []probe
	for k := collKind(0); k < numCollKinds; k++ {
		if cands := c.tuneCandidates(k); len(cands) >= 2 {
			probes = append(probes, probe{kind: k, candidates: cands})
		}
	}

	// Every rank runs every probe in the same order (MPI's
	// collective-ordering rule makes the sweep legal); rank 0's readings
	// decide.
	for i := range probes {
		pr := &probes[i]
		for _, size := range tuneSizes {
			ts := make([]vtime.Duration, len(pr.candidates))
			for j, a := range pr.candidates {
				var err error
				if ts[j], err = c.timeAlgo(pr.kind, a, size); err != nil {
					return fmt.Errorf("mpi: autotune %s/%s at %d B: %w",
						collKinds[pr.kind].name, collAlgos[a].name, size, err)
				}
			}
			pr.readings = append(pr.readings, ts)
		}
	}

	// Per-device-class switch-point probes: for each installed probe pair
	// (A, B) the two ranks time eager- versus rendez-vous-forced
	// ping-pongs across the probe sweep while the other ranks hold at the
	// bracketing barriers; A elects the measured crossover and ships it to
	// rank 0 for the table broadcast.
	classThr := make(map[string]int, len(c.p.classProbes))
	for _, pr := range c.p.classProbes {
		thr, err := c.probeClassSwitch(pr)
		if err != nil {
			return fmt.Errorf("mpi: autotune switch probe %s(%d,%d): %w", pr.Class, pr.A, pr.B, err)
		}
		if c.myRank == pr.A && pr.A != 0 {
			if err := c.Send(Int64Bytes([]int64{int64(thr)}), 1, Int64, 0, tuneProbeTag); err != nil {
				return err
			}
		}
		if c.myRank == 0 {
			if pr.A != 0 {
				buf := make([]byte, 8)
				if _, err := c.Recv(buf, 1, Int64, pr.A, tuneProbeTag); err != nil {
					return err
				}
				thr = int(BytesInt64(buf)[0])
			}
			if thr > 0 {
				classThr[pr.Class] = thr
			}
		}
	}

	// Rank 0 turns its readings into crossover brackets and broadcasts the
	// encoded table (collective rows, then per-class switch rows tagged
	// with negative kinds); everyone installs the same triples.
	var enc []int64
	if c.myRank == 0 {
		for _, pr := range probes { // ascending kind order
			rows := crossoverRows(tuneSizes, pr.candidates, pr.readings)
			c.traceCrossings(pr.kind, pr.candidates, pr.readings, rows)
			for _, r := range rows {
				enc = append(enc, int64(pr.kind), int64(r.maxBytes), int64(r.algo))
			}
		}
		for i, name := range deviceClassNames {
			if thr, ok := classThr[name]; ok {
				enc = append(enc, int64(-(i + 1)), int64(thr), 0)
			}
		}
	}
	nRows := Int64Bytes([]int64{int64(len(enc))}) // 0 off rank 0: the Bcast fills it
	if err := c.Bcast(nRows, 1, Int64, 0); err != nil {
		return err
	}
	total := int(BytesInt64(nRows)[0])
	buf := make([]byte, 8*total)
	if c.myRank == 0 {
		copy(buf, Int64Bytes(enc))
	}
	if total > 0 {
		if err := c.Bcast(buf, total, Int64, 0); err != nil {
			return err
		}
	}
	return c.p.installTuneTable(BytesInt64(buf))
}

// installTuneTable installs the install broadcast's triples — (kind,
// maxBytes, algo) bracket rows, then (-(class index + 1), threshold, 0)
// per-class switch rows — as the process's crossover table and class
// thresholds. It also refreshes the world communicator's table cache, which
// the sweep's own barriers and broadcasts resolved to nil, so the table
// governs from the next collective on. A triple naming no known operation,
// algorithm or device class, or carrying a non-positive bound, is an error
// and nothing is installed. Costs no virtual time.
func (p *Process) installTuneTable(enc []int64) error {
	tt := &tuneTable{rows: make(map[collKind][]tuneRow)}
	var classes []int // where the class triples start, installed once all are good
	for i := 0; i+2 < len(enc); i += 3 {
		k, bound, a := enc[i], enc[i+1], enc[i+2]
		bad := func(what string) error {
			return fmt.Errorf("mpi: tune table: triple (%d, %d, %d): %s", k, bound, a, what)
		}
		switch {
		case bound <= 0:
			return bad("non-positive bound")
		case k < -int64(len(deviceClassNames)):
			return bad("unknown device class")
		case k < 0:
			classes = append(classes, i)
		case k >= int64(numCollKinds):
			return bad("unknown operation")
		case a < 0 || a >= int64(len(collAlgos)):
			return bad("unknown algorithm")
		default:
			tt.rows[collKind(k)] = append(tt.rows[collKind(k)], tuneRow{maxBytes: int(bound), algo: collAlgo(a)})
		}
	}
	for _, i := range classes {
		p.installClassSwitch(deviceClassNames[-enc[i]-1], int(enc[i+1]))
	}
	p.tuned = tt
	return nil
}

// crossoverRows compresses the sweep's readings ([size][candidate]) into
// brackets. Each size's winner is its fastest candidate (the first on a
// tie). Where the winner changes between adjacent sizes lo and hi, the
// bound goes where the two winners' readings cross, each candidate's time
// taken as a straight line between lo and hi: lo + (hi−lo)·lead/(lead+lag),
// lead ≥ 0 how far the low-side winner is ahead at lo, lag how far it is
// behind at hi. The bound lies in [lo, hi) (hi − 1 when the two tie at hi),
// so every sweep size still looks up its own measured winner.
func crossoverRows(sizes []int, candidates []collAlgo, readings [][]vtime.Duration) []tuneRow {
	var rows []tuneRow
	prev := -1
	for i, ts := range readings {
		w := slices.Index(ts, slices.Min(ts))
		if w == prev {
			continue
		}
		if prev >= 0 {
			lo, hi := sizes[i-1], sizes[i]
			lead, lag := int64(readings[i-1][w]-readings[i-1][prev]), int64(ts[prev]-ts[w])
			rows[len(rows)-1].maxBytes = min(lo+int(int64(hi-lo)*lead/max(lead+lag, 1)), hi-1)
		}
		rows = append(rows, tuneRow{maxBytes: math.MaxInt, algo: candidates[w]})
		prev = w
	}
	return rows
}

// traceCrossings puts each bound crossoverRows placed on the trace as a
// "tune.cross" ctrl instant: the bound in bytes, and in class the
// operation, the sweep sizes around the bound and, for the algorithm below
// and the one above it, its readings at those two sizes.
func (c *Comm) traceCrossings(kind collKind, candidates []collAlgo, readings [][]vtime.Duration, rows []tuneRow) {
	tr := c.p.tracer
	for r := 1; tr != nil && r < len(rows); r++ {
		bound, below, above := rows[r-1].maxBytes, rows[r-1].algo, rows[r].algo
		i := slices.IndexFunc(tuneSizes, func(s int) bool { return s > bound })
		a, b := slices.Index(candidates, below), slices.Index(candidates, above)
		tr.Instant(c.p.traceTrack, trace.KCtrl, "tune.cross", trace.Args{Bytes: int64(bound), Class: fmt.Sprintf(
			"op=%s,lo=%d,hi=%d,%s=%.6gus/%.6gus,%s=%.6gus/%.6gus", collKinds[kind].name, tuneSizes[i-1], tuneSizes[i],
			collAlgos[below].name, readings[i-1][a].Micros(), readings[i][a].Micros(),
			collAlgos[above].name, readings[i-1][b].Micros(), readings[i][b].Micros())})
	}
}

// tuneProbeTag is the reserved message tag of the switch-point probe
// traffic (the ping-pongs and the verdict ship to rank 0); Autotune runs
// before the rank main, so it cannot collide with application tags.
const tuneProbeTag = 0x7357

// probeClassSwitch runs one device class's eager/rendez-vous probe. All
// ranks step through the same barrier sequence; ranks pr.A and pr.B
// additionally time reps ping-pongs per (size, mode), forcing the mode
// through the device's per-class threshold override. Only pr.A returns a
// non-zero threshold (0 also when the device toward the peer does not
// accept per-class tuning and the probe is meaningless).
func (c *Comm) probeClassSwitch(pr ClassProbe) (int, error) {
	mine := c.myRank == pr.A || c.myRank == pr.B
	peer := pr.B
	if c.myRank == pr.B {
		peer = pr.A
	}
	var tuner adi.ClassTuner
	if mine {
		if ct, ok := c.p.route(peer).(adi.ClassTuner); ok {
			tuner = ct
		}
	}
	const reps = 2
	var eagerT, rndvT []vtime.Duration
	for _, size := range switchTuneSizes {
		for mode := 0; mode < 2; mode++ {
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			if tuner != nil {
				if mode == 0 {
					tuner.SetClassSwitchPoint(pr.Class, size) // payload == threshold: eager
				} else {
					tuner.SetClassSwitchPoint(pr.Class, 1) // force rendez-vous
				}
			}
			var dt vtime.Duration
			if mine && tuner != nil {
				buf := c.p.Eng.Bufs.Get(size)
				start := c.p.M.S.Now()
				for i := 0; i < reps; i++ {
					var err error
					if c.myRank == pr.A {
						err = c.Send(buf.B, size, Byte, peer, tuneProbeTag)
						if err == nil {
							_, err = c.Recv(buf.B, size, Byte, peer, tuneProbeTag)
						}
					} else {
						_, err = c.Recv(buf.B, size, Byte, peer, tuneProbeTag)
						if err == nil {
							err = c.Send(buf.B, size, Byte, peer, tuneProbeTag)
						}
					}
					if err != nil {
						return 0, err
					}
				}
				dt = c.p.M.S.Now().Sub(start)
				buf.Release()
				tuner.SetClassSwitchPoint(pr.Class, 0) // drop the probe override
			}
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			if c.myRank == pr.A && tuner != nil {
				if mode == 0 {
					eagerT = append(eagerT, dt)
				} else {
					rndvT = append(rndvT, dt)
				}
			}
		}
	}
	if c.myRank != pr.A || tuner == nil {
		return 0, nil
	}
	return electSwitchThreshold(switchTuneSizes, eagerT, rndvT), nil
}

// electSwitchThreshold places the measured eager->rendez-vous crossover:
// the geometric midpoint between the last eager-winning and the first
// rendez-vous-winning probe size; below the sweep when rendez-vous wins
// everywhere, above it when eager does.
func electSwitchThreshold(sizes []int, eagerT, rndvT []vtime.Duration) int {
	for i := range sizes {
		if rndvT[i] < eagerT[i] {
			if i == 0 {
				return sizes[0] / 2
			}
			return int(math.Sqrt(float64(sizes[i-1]) * float64(sizes[i])))
		}
	}
	return 2 * sizes[len(sizes)-1]
}
