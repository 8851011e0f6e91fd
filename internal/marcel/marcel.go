// Package marcel reproduces the role of the Marcel user-level thread
// library in the PM2 environment (§3.3, §4.2.3 of the paper): it gives
// each simulated process a set of cooperative threads multiplexed on a
// single virtual CPU, plus the polling discipline Madeleine relies on.
//
// Because Marcel threads are user-level, threads of one process never run
// in parallel: all CPU time (compute, packing, copies, poll costs) is
// serialized through the process's CPU resource. This is what makes the
// paper's Figure 9 phenomenon — an idle TCP polling thread degrading SCI
// latency — emerge structurally rather than being hard-coded.
//
// CPU time comes in two kinds. Charge is the communication stack's: a
// send overhead, a copy, a handling cost, an idle poll's burn. Charges
// queue FIFO and none is ever cut. Compute is the application's: it queues
// in the same FIFO, but a Charge that queues behind a running Compute
// preempts it — the Compute keeps the CPU for at most one more Quantum,
// then leaves it to the stack until the CPU falls idle or for one Quantum,
// then queues behind whoever waits and resumes with what it has left. That
// is what lets the stack's threads (a collective's progress thread, a
// device's receive path) advance while the application computes, as
// Marcel's do beside a PM2 application. An idle poll's burn and another
// Compute never preempt anything, so a process whose threads only Charge
// runs exactly as if there were no preemption at all, and a Compute that
// no Charge meets runs the same events as a Charge of the same length.
//
// An idle poll therefore has two prices, and they are decoupled. To the
// simulated CPU it costs what the protocol says — IdleCost every Interval,
// queued FIFO with every other charge of the process, counted in CPUBusy.
// To the host it costs two entries in the kernel's timer lanes — FIFOs, one
// per fixed delay, beside the timer heap — and some bookkeeping inside its
// scheduling loop: a polling thread that finds nothing is not resumed to
// find it (see WaitPoll). In a quiet stretch, where the pollers' cycles are
// all that happens, it costs less still: the kernel moves every poller on
// by whole periods in one step.
package marcel

import (
	"slices"

	"mpichmad/internal/vtime"
)

// Proc is a simulated process: a namespace of threads sharing one virtual
// CPU. It corresponds to one MPI rank.
type Proc struct {
	S    *vtime.Scheduler
	Name string

	cpu *vtime.Sem
	// charges counts the Charge calls queued for cpu.
	charges int
	// holder is the Compute that holds cpu, if one does; spare is a free
	// list of finished ones, so that a Compute allocates nothing.
	holder, spare *compute
	// sitting are the Computes sitting out a cut, in the order they were
	// cut; checking says an idle check is armed (see release).
	sitting  []*compute
	checking bool
	idleFn   func()
	// charging says a Charge holds cpu; claim is a Compute whose sit-out
	// ended while one did, with nobody queued: it is next (see release).
	charging bool
	claim    *compute

	// CPUBusy accumulates total virtual CPU time charged by threads of
	// this process; exposed for tests and the Fig. 9 analysis.
	CPUBusy vtime.Duration
}

// NewProc creates a process with an idle CPU.
func NewProc(s *vtime.Scheduler, name string) *Proc {
	p := &Proc{S: s, Name: name, cpu: vtime.NewSem(s, name+".cpu", 1)}
	p.idleFn = p.idle
	return p
}

// Spawn starts a regular (non-daemon) thread in this process.
func (p *Proc) Spawn(name string, fn func()) *vtime.Task {
	return p.S.Go(p.Name+"/"+name, fn)
}

// SpawnDaemon starts a daemon thread (e.g. a polling thread): it does not
// keep the simulation alive.
func (p *Proc) SpawnDaemon(name string, fn func()) *vtime.Task {
	return p.S.GoDaemon(p.Name+"/"+name, fn)
}

// Charge occupies this process's CPU for d of virtual time on behalf of the
// communication stack. Threads of the same process queue FIFO behind each
// other; threads of different processes proceed concurrently. A charge is
// never cut: once it has the CPU it keeps it for all of d. Queued behind a
// Compute that nobody has preempted yet, it preempts it (see Quantum).
// d <= 0 is a no-op.
func (p *Proc) Charge(d vtime.Duration) {
	if d <= 0 {
		return
	}
	if c := p.holder; c != nil && c.preemptible {
		c.preemptible = false
		if c.since.Add(c.left).Sub(p.S.Now()) > Quantum {
			p.S.After(Quantum, c.cutFn)
		}
	}
	p.charges++
	p.cpu.Acquire()
	p.charges--
	p.CPUBusy += d
	p.charging = true
	p.S.Sleep(d)
	p.charging = false
	p.release()
}

// release gives up the CPU: to the Compute that claimed it if one did (see
// compute.resume), else as Sem.Release does. If that leaves the CPU free
// while a Compute sits out, it arms an idle check at this instant, behind
// everything already due now: the releasing thread runs on first, so a
// thread that charges again at once keeps its turn, and the check hands the
// CPU back to the Compute only if nobody took it.
func (p *Proc) release() {
	if c := p.claim; c != nil {
		p.claim = nil
		c.hold() // the CPU passes to the claim as Release would hand it to a first waiter
		return
	}
	p.cpu.Release()
	if len(p.sitting) > 0 && !p.checking && p.cpu.Value() > 0 {
		p.checking = true
		p.S.After(0, p.idleFn)
	}
}

// idle ends the first sit-out if the CPU is still free.
func (p *Proc) idle() {
	p.checking = false
	if len(p.sitting) > 0 && p.cpu.TryAcquire() {
		c := p.sitting[0]
		p.sitting = slices.Delete(p.sitting, 0, 1)
		c.hold()
	}
}

// Quantum is the time slice of a Compute that charges are waiting behind:
// it keeps the CPU for at most one Quantum more, then leaves it to the
// stack until nobody takes it or for one Quantum, and then takes it back if
// it is free or queues for it behind whoever waits. It is of the order of
// the stack's own charges (a send overhead is 0.2–30 µs, a ch_mad handling
// cost 0.5–8.5 µs in netsim's calibrations): short enough that a progress
// thread steps a collective's rounds while the application computes, long
// enough that a stream of charges cannot slice the computation much finer
// than the work it interleaves with. It is a property of the simulated
// machine, like PollSpec, not a tuning knob.
const Quantum = 20 * vtime.Microsecond

// Compute occupies this process's CPU for d of virtual time on behalf of
// the application. It queues FIFO with every other use of the CPU, and
// nothing but a Charge preempts it: from the start of a turn that charges
// wait behind, or from the first Charge that queues behind it, it runs at
// most one Quantum before it is cut; it then sits out (see cut) and resumes
// with what it has left. A Compute nobody preempts runs the same events as
// a Charge of d. CPUBusy counts all of d when the Compute first gets the
// CPU. d <= 0 is a no-op.
//
// The calling thread parks for the whole Compute and runs again only at the
// end, or to queue for the CPU when a sit-out ends behind other waiters:
// turns, cuts and sit-outs are timer callbacks, so a preemption costs the
// host no context switch of its own.
func (p *Proc) Compute(d vtime.Duration) {
	if d <= 0 {
		return
	}
	p.cpu.Acquire()
	p.CPUBusy += d
	c := p.spare
	if c == nil {
		c = &compute{p: p, wake: vtime.NewQueue[struct{}](p.S, p.Name+".compute")}
		c.cutFn, c.endFn, c.resumeFn = c.cut, c.end, c.resume
	} else {
		p.spare = c.next
	}
	c.left, c.done = d, false
	for {
		c.hold()
		if c.wake.Pop(); c.done {
			break
		}
		p.cpu.Acquire()
	}
	c.next, p.spare = p.spare, c
	p.release()
}

// compute is the state of one Compute call. Its thread parks on wake; the
// timer callbacks below move it between holding the CPU and sitting out.
type compute struct {
	p     *Proc
	wake  *vtime.Queue[struct{}]
	left  vtime.Duration // CPU time still owed as of since
	since vtime.Time     // when the current turn on the CPU began
	endAt vtime.Time     // when the pending end timer fires; 0: none pending
	// resumeAt is when the current sit-out ends at the latest.
	resumeAt vtime.Time
	// holding: the CPU is ours. preemptible: nobody waited when the turn
	// began and no Charge has queued since.
	holding, preemptible, done bool

	next                   *compute // in Proc.spare
	cutFn, endFn, resumeFn func()   // the methods below, bound once
}

// hold begins a turn on the CPU, which c holds: a slice of one Quantum if
// charges are waiting, else a turn that lasts to the end unless one queues.
func (c *compute) hold() {
	p := c.p
	c.since, c.holding, p.holder = p.S.Now(), true, c
	if p.charges > 0 && c.left > Quantum {
		p.S.After(Quantum, c.cutFn)
		return
	}
	c.preemptible = p.charges == 0
	// Preemption only ever delays the end, so an end timer still pending
	// from an earlier turn fires no later than this one's end: it re-arms.
	if c.endAt == 0 {
		c.endAt = c.since.Add(c.left)
		p.S.At(c.endAt, c.endFn)
	}
}

// cut ends c's turn: it gives the CPU to the charge waiting behind it and
// sits out until the CPU is idle again (Proc.idle) or for one Quantum,
// whichever comes first.
func (c *compute) cut() {
	p := c.p
	c.left -= p.S.Now().Sub(c.since)
	c.holding, c.preemptible, p.holder = false, false, nil
	p.cpu.Release()
	p.sitting = append(p.sitting, c)
	c.resumeAt = p.S.Now().Add(Quantum)
	p.S.At(c.resumeAt, c.resumeFn)
}

// resume ends a sit-out that lasted a Quantum: c takes the CPU if it is
// free, claims it from the Charge that holds it if nobody waits, or wakes
// its thread to queue for it behind whoever waits. The claim is the queue
// of one without the thread: it saves two context switches of the host.
func (c *compute) resume() {
	p := c.p
	i := slices.Index(p.sitting, c)
	if i < 0 || c.resumeAt != p.S.Now() {
		return // the sit-out ended at an idle check
	}
	p.sitting = slices.Delete(p.sitting, i, i+1)
	switch {
	case p.cpu.TryAcquire():
		c.hold()
	case p.charging && p.cpu.Waiting() == 0 && p.claim == nil:
		p.claim = c
	default:
		c.wake.Push(struct{}{})
	}
}

// end fires when c would be done had nothing cut it since the timer was
// armed: it wakes the thread if c is, or follows the end that moved.
func (c *compute) end() {
	p := c.p
	c.endAt = 0
	if !c.holding {
		return // cut: the next turn arms the end again
	}
	if end := c.since.Add(c.left); end > p.S.Now() {
		c.endAt = end
		p.S.At(end, c.endFn)
		return
	}
	c.holding, c.preemptible, c.done, p.holder = false, false, true, nil
	c.wake.Push(struct{}{})
}

// Sleep suspends the calling thread without occupying the CPU.
func (p *Proc) Sleep(d vtime.Duration) { p.S.Sleep(d) }

// PollSpec describes a protocol's polling discipline (§3.3: "the polling
// frequency may be selected on a per-protocol basis, enabling low latency
// networks with cheap polling mechanisms to be polled more frequently than
// TCP-like networks only providing the expensive select system call").
type PollSpec struct {
	// IdleCost is the CPU burned by one unsuccessful poll of the
	// protocol while waiting (e.g. the select system call for TCP, a
	// cache-coherent flag read for SCI).
	IdleCost vtime.Duration
	// Interval is the idle polling period. Zero means pure
	// wake-on-arrival (no idle CPU burn).
	Interval vtime.Duration
}

// WaitPoll blocks until q yields an item, following spec's polling
// discipline: while idle the thread wakes every Interval and holds the
// process's CPU for IdleCost, queueing for it like any Charge, except that
// a burn never preempts a Compute; an arrival wakes it immediately. With
// Interval == 0 the wait is a pure blocking wait.
//
// The idle burn is the load-bearing detail: an idle TCP poller with a
// costly select keeps stealing CPU slices from the other threads of its
// process, which is exactly the multi-protocol interference the paper
// measures in Figure 9. So every empty poll is simulated — its two timers,
// its turn in the CPU's FIFO, its share of CPUBusy — but none of them wakes
// the thread: the kernel steps a parked poller's cycle itself
// (vtime.Queue.PopPoll) and resumes it only for an item, and it crosses a
// stretch where nothing else happens in one step of whole periods, with
// the same burns counted. The simulated cost of polling is unchanged; its
// cost to the host is no longer a context switch per poll.
func WaitPoll[T any](p *Proc, q *vtime.Queue[T], spec PollSpec) T {
	if spec.Interval <= 0 {
		return q.Pop()
	}
	return q.PopPoll(spec.Interval, p.cpu, spec.IdleCost, &p.CPUBusy)
}
