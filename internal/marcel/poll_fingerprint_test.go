package marcel

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"mpichmad/internal/vtime"
)

// The idle-poll pin, in the style of vtime's order pin: seeded random
// programs of processes whose pollers idle beside compute threads on the
// same CPU, fed by producers that push at instants aligned to the pollers'
// timeout/burn lattice. One line per program (testdata/
// poll_fingerprints.txt) must regenerate byte-unchanged after any change to
// WaitPoll or to the kernel under it; after an *intended* change, delete
// the file and run the test once to re-record. The compute threads there
// Charge; testdata/preempt_fingerprints.txt pins the same programs with
// them in Compute, which the pollers' handling charges preempt.
//
// waitPollLoop below is WaitPoll as a plain loop over the kernel's public
// primitives. It is the reference: TestWaitPollMatchesLoop runs further
// seeds through both and compares the whole event logs.

const (
	pollFingerprintFile    = "testdata/poll_fingerprints.txt"
	preemptFingerprintFile = "testdata/preempt_fingerprints.txt"
)

// waitPollLoop is the reference implementation of WaitPoll: every idle
// cycle is a PopTimeout that runs out followed by a Charge, each a real
// block of the calling thread.
func waitPollLoop[T any](p *Proc, q *vtime.Queue[T], spec PollSpec) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		if spec.Interval <= 0 {
			return q.Pop()
		}
		if v, ok := q.PopTimeout(spec.Interval); ok {
			return v
		}
		// Idle poll: burn the poll cost and go around.
		p.Charge(spec.IdleCost)
	}
}

type pollWaitFn func(*Proc, *vtime.Queue[int], PollSpec) int

// grainFn is how a program's compute threads spend their grains:
// (*Proc).Charge in the poll pin, (*Proc).Compute in the preemption pin.
type grainFn func(*Proc, vtime.Duration)

// pollRand is a private splitmix64, so the programs do not depend on any
// library generator's stream.
type pollRand uint64

func (r *pollRand) n(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// pollGrid is what intervals and idle costs are drawn from: no idle cycle
// at all, a degenerate one, a cheap flag read, the calibrated select cost
// and the calibrated TCP interval. A program draws from the three finest
// or from all but the 1 ns: a 1 ns poller beside a 25 us burn would spin a
// million times while a compute thread waits its turn.
var pollGrid = []vtime.Duration{0, vtime.Nanosecond, 300 * vtime.Nanosecond, 8 * vtime.Microsecond, 25 * vtime.Microsecond, 0}

// How a program is meant to end.
const (
	endOK       = iota // every non-daemon poller gets its quota
	endDeadlock        // wake-on-arrival daemons, one poller starved for good
	endDeadline        // a polling thread starved for good: a livelock
)

type pollQueue struct {
	q    *vtime.Queue[int]
	spec PollSpec // of the first poller on it: the lattice producers aim at
	excl bool     // feeds one non-daemon poller: no second consumer, exact supply
	want int      // items that poller takes
	// An echo queue is supplied by its own consumers: each item taken arms
	// the next push, aimed at the lattice of the wait that starts then.
	echo int // pushes still to arm
	rnd  pollRand
}

type pollProg struct {
	s     *vtime.Scheduler
	wait  pollWaitFn
	grain grainFn
	lines []string
	procs []*Proc
	item  int // next value to push
}

// echo arms the next push of an echo queue, d from now: on the n-th timeout
// or burn end of a wait that starts now on a free CPU, or 1 ns either side.
// Armed now, the callback is older than every timer of that wait and wins
// its ties; armed by a second callback 1-2 ns ahead it is younger than the
// interval it lands in and loses them — an item pushed in the same instant
// as the timeout, after it: the last look.
func (g *pollProg) echo(p *Proc, pq *pollQueue) {
	if pq.echo == 0 {
		return
	}
	pq.echo--
	d := pollInstant(&pq.rnd, pq.spec, 3*pollCycle(pq.spec)).Sub(0)
	v := g.item
	g.item++
	push := func() {
		g.log(p, "cb", fmt.Sprintf("echo push %d", v))
		pq.q.Push(v)
	}
	if lead := vtime.Duration(1 + pq.rnd.n(2)); pq.rnd.n(2) == 0 && d > lead {
		g.s.After(d-lead, func() { g.s.After(lead, push) })
	} else {
		g.s.After(d, push)
	}
}

func (g *pollProg) log(p *Proc, task, what string) {
	g.lines = append(g.lines, fmt.Sprintf("%d %s %s busy=%d cpuq=%d",
		int64(g.s.Now()), task, what, int64(p.CPUBusy), p.cpu.Waiting()))
}

// pollCycle is one idle period of spec on a free CPU (8 us stands in where the
// spec never cycles).
func pollCycle(spec PollSpec) vtime.Duration {
	if spec.Interval <= 0 {
		return 8 * vtime.Microsecond
	}
	return spec.Interval + spec.IdleCost
}

// pollInstant draws a point of spec's lattice within the horizon: the n-th
// timeout or the n-th burn end of a poller that started at 0 on a free
// CPU, or one nanosecond either side of it.
func pollInstant(r *pollRand, spec PollSpec, horizon vtime.Duration) vtime.Time {
	c := pollCycle(spec)
	n := vtime.Duration(r.n(int(horizon/c) + 1))
	at := n * c
	if r.n(2) == 0 {
		at += spec.Interval // a timeout; otherwise a burn end
	}
	at += vtime.Duration(r.n(3) - 1)
	return vtime.Time(max(at, 0))
}

type pollResult struct {
	lines []string
	line  string // the fingerprint line
	built int    // how the program was built to end
	end   int    // how it ended
}

// pollProgram builds and runs program k with the given WaitPoll, its
// compute threads spending their grains through grain. Every other use of
// the CPU — a poller's handling of an item, its idle burns — is a Charge.
func pollProgram(k int, wait pollWaitFn, grain grainFn) pollResult {
	r := pollRand(k*104729 + 7)
	end := []int{endOK, endOK, endDeadlock, endDeadline}[k%4]
	s := vtime.New()
	g := &pollProg{s: s, wait: wait, grain: grain}
	nproc := 1 + r.n(8)
	grid := pollGrid[:3]
	if r.n(3) != 0 {
		grid = pollGrid[2:]
	}

	// Draw every poller's spec first: the horizon depends on the fastest
	// and the slowest cycle in the program.
	type pollerPlan struct {
		spec   PollSpec
		daemon bool
		shared bool // polls the previous poller's queue
	}
	plans := make([][]pollerPlan, nproc)
	minC, maxC := vtime.Duration(1<<62), vtime.Duration(0)
	starves := end != endOK      // the first non-daemon poller drawn is the one that starves
	quiet := make([]bool, nproc) // one poller alone on its CPU: its lattice is exact
	for i := range plans {
		plans[i] = make([]pollerPlan, 1+r.n(3))
		if quiet[i] = r.n(3) == 0; quiet[i] {
			plans[i] = plans[i][:1]
		}
		for j := range plans[i] {
			pl := &plans[i][j]
			pl.spec = PollSpec{IdleCost: grid[r.n(len(grid))], Interval: grid[r.n(len(grid))]}
			pl.daemon = r.n(3) != 0
			pl.shared = pl.daemon && j > 0 && r.n(4) == 0
			switch {
			case end == endDeadlock && (pl.daemon || starves):
				pl.spec.Interval = 0 // a timer that never stops would make a livelock of it
			case end == endDeadline && !pl.daemon && starves && pl.spec.Interval == 0:
				pl.spec.Interval = 25 * vtime.Microsecond // and without one it would be a deadlock
			}
			starves = starves && pl.daemon
			if pl.spec.Interval > 0 {
				minC, maxC = min(minC, pollCycle(pl.spec)), max(maxC, pollCycle(pl.spec))
			}
		}
	}
	if maxC == 0 {
		minC, maxC = 8*vtime.Microsecond, 8*vtime.Microsecond
	}
	// Long enough for a dozen of the slowest cycles, short enough that the
	// fastest (1 ns) does not spin for a million.
	horizon := min(12*maxC, 10000*minC)

	var queues []*pollQueue
	for i := 0; i < nproc; i++ {
		p := NewProc(s, fmt.Sprintf("p%d", i))
		g.procs = append(g.procs, p)
		var prev *pollQueue
		for j, pl := range plans[i] {
			name := fmt.Sprintf("poll%d", j)
			pq := prev
			if !pl.shared || prev.excl {
				pq = &pollQueue{q: vtime.NewQueue[int](s, fmt.Sprintf("p%d.q%d", i, j)), spec: pl.spec}
				queues = append(queues, pq)
			}
			prev = pq
			handle := []vtime.Duration{0, 300 * vtime.Nanosecond, pl.spec.IdleCost}[r.n(3)]
			if quiet[i] {
				handle = 0
			}
			spec := pl.spec
			take := func() {
				v := g.wait(p, pq.q, spec)
				g.log(p, p.Name+"/"+name, fmt.Sprintf("got %d", v))
				p.Charge(handle)
				g.echo(p, pq)
			}
			if pl.daemon {
				p.SpawnDaemon(name, func() {
					for {
						take()
					}
				})
				continue
			}
			pq.excl, pq.want = true, 1+r.n(4)
			p.Spawn(name, func() {
				for range pq.want {
					take()
				}
				g.log(p, p.Name+"/"+name, "end")
			})
		}
		if quiet[i] {
			continue
		}
		// Compute threads on the same CPU: slices shorter than, equal to
		// and longer than the first poller's cycle.
		sp := plans[i][0].spec
		c := pollCycle(sp)
		grains := []vtime.Duration{vtime.Nanosecond, 300 * vtime.Nanosecond, sp.IdleCost, sp.Interval, c - 1, c, c + 1, 3*c + sp.Interval}
		for n, d := range grains {
			grains[n] = min(d, horizon/8) // nine of them must fit the backstop
		}
		for j := r.n(3); j > 0; j-- {
			name := fmt.Sprintf("comp%d", j)
			seed := pollRand(r.n(1 << 30))
			steps := 2 + r.n(8)
			p.Spawn(name, func() {
				for n := 0; n < steps; n++ {
					d := grains[seed.n(len(grains))]
					g.grain(p, d)
					g.log(p, p.Name+"/"+name, fmt.Sprintf("slice %d", d))
					if seed.n(3) == 0 {
						p.Sleep(grains[seed.n(len(grains))])
					}
				}
			})
		}
	}

	// Supply. An exclusive queue gets exactly what its poller takes (none
	// at all for the one that is to starve); the others get a few items
	// and, sometimes, a thief that empties them behind the poller's back.
	starved := false
	for qi, pq := range queues {
		n := 1 + r.n(5)
		if pq.excl {
			n = pq.want
			if end != endOK && !starved {
				starved, n = true, 0
			}
		}
		var at []vtime.Time
		for range n {
			at = append(at, pollInstant(&r, pq.spec, horizon))
		}
		slices.Sort(at)
		p, q := g.procs[qi%nproc], pq.q
		first := g.item
		prod := fmt.Sprintf("prod%d", qi)
		switch r.n(4) {
		case 0: // callbacks armed before anything runs: they win every tie
			g.item += n
			for i, when := range at {
				s.At(when, func() {
					g.log(p, "cb", fmt.Sprintf("push %d to %s", first+i, p.Name))
					q.Push(first + i)
				})
			}
		case 1: // a thread that sleeps up to each instant
			g.item += n
			p.Spawn(prod, func() {
				for i, when := range at {
					p.Sleep(when.Sub(s.Now()))
					q.Push(first + i)
					g.log(p, prod, fmt.Sprintf("pushed %d", first+i))
				}
			})
		case 2: // a thread that arms a callback just ahead of each instant: it loses every tie
			g.item += n
			p.Spawn(prod, func() {
				for i, when := range at {
					d := max(when.Sub(s.Now()), 0)
					lead := min(d, vtime.Duration(1+i%2))
					p.Sleep(d - lead)
					s.After(lead, func() {
						g.log(p, "cb", fmt.Sprintf("late push %d", first+i))
						q.Push(first + i)
					})
				}
			})
		case 3: // the consumers themselves, each item arming the next
			pq.echo, pq.rnd = n, pollRand(r.n(1<<30))
			g.echo(p, pq)
		}
		if !pq.excl && r.n(2) == 0 {
			when := pollInstant(&r, pq.spec, horizon)
			fickle := r.n(2) == 0
			thief := fmt.Sprintf("thief%d", qi)
			p.Spawn(thief, func() {
				p.Sleep(when.Sub(s.Now()))
				if fickle {
					// An item that wakes the poller and is gone before
					// its turn comes, as when a consumer ahead of it in
					// the ready queue takes it.
					q.Push(-1)
				}
				v, ok := q.TryPop()
				g.log(p, thief, fmt.Sprintf("trypop %d %v", v, ok))
			})
		}
	}
	if end != endOK && !starved {
		// No non-daemon poller was drawn: add the one that starves.
		p := g.procs[0]
		spec := PollSpec{IdleCost: 8 * vtime.Microsecond, Interval: 25 * vtime.Microsecond}
		if end == endDeadlock {
			spec.Interval = 0
		}
		q := vtime.NewQueue[int](s, "p0.starved")
		p.Spawn("pollx", func() { g.wait(p, q, spec) })
	}
	if end == endDeadline {
		s.SetDeadline(vtime.Time(horizon))
	} else {
		s.SetDeadline(vtime.Time(32 * horizon)) // backstop: a generator bug must not hang the test
	}

	err := s.Run()
	h := fnv.New64a()
	for _, l := range g.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var busy []string
	for _, p := range g.procs {
		busy = append(busy, fmt.Sprint(int64(p.CPUBusy)))
	}
	res := pollResult{lines: g.lines, built: end, end: endOK}
	tail := "ok"
	if err != nil {
		dump := strings.Split(strings.TrimSuffix(err.Error(), "\n"), "\n")
		tail = dump[0]
		for _, l := range dump[1:] {
			if strings.Contains(l, "/poll") {
				tail += " |" + l
			}
		}
		res.end = endDeadline
		var de *vtime.DeadlockError
		if errors.As(err, &de) {
			res.end = endDeadlock
		}
	}
	res.line = fmt.Sprintf("program %d procs=%d: events=%d hash=%016x final=%d busy=%s %s",
		k, nproc, len(g.lines), h.Sum64(), int64(s.Now()), strings.Join(busy, ","), tail)
	return res
}

const pollPrograms = 48

func TestPollFingerprint(t *testing.T) {
	checkPin(t, pollFingerprintFile, (*Proc).Charge)
}

// TestPreemptFingerprint is the same 48 programs with the compute threads'
// grains spent through Compute, so every poller's handling charge that
// queues behind one cuts it (Quantum) while the idle burns do not.
func TestPreemptFingerprint(t *testing.T) {
	checkPin(t, preemptFingerprintFile, (*Proc).Compute)
}

// checkPin runs the pinned programs with WaitPoll and grain and compares
// one line per program with file, recording the file when it is missing.
func checkPin(t *testing.T, file string, grain grainFn) {
	var got []string
	for k := 0; k < pollPrograms; k++ {
		res := pollProgram(k, WaitPoll[int], grain)
		if res.end != res.built {
			t.Errorf("program %d ended %d, built to end %d: %s", k, res.end, res.built, res.line)
		}
		got = append(got, res.line)
	}
	raw, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: recorded %d lines; review and commit it", file, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("fingerprint has %d lines, %s has %d", len(got), file, len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}

// TestWaitPollMatchesLoop compares WaitPoll with the reference loop
// directly, event by event, on seeds the fingerprint file does not hold.
// Its grains are charges: the reference loop's burn is a Charge, which
// would preempt a Compute where WaitPoll's burn does not.
func TestWaitPollMatchesLoop(t *testing.T) {
	for k := pollPrograms; k < pollPrograms+200; k++ {
		got, want := pollProgram(k, WaitPoll[int], (*Proc).Charge), pollProgram(k, waitPollLoop[int], (*Proc).Charge)
		if got.line != want.line {
			t.Errorf("program %d:\n got  %s\n want %s", k, got.line, want.line)
		}
		if !slices.Equal(got.lines, want.lines) {
			for i := range min(len(got.lines), len(want.lines)) {
				if got.lines[i] != want.lines[i] {
					t.Fatalf("program %d, event %d:\n got  %s\n want %s", k, i, got.lines[i], want.lines[i])
				}
			}
			t.Fatalf("program %d: %d events, reference has %d", k, len(got.lines), len(want.lines))
		}
	}
}
