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
// An idle poll therefore has two prices, and they are decoupled. To the
// simulated CPU it costs what the protocol says — IdleCost every Interval,
// queued FIFO with every other Compute of the process, counted in CPUBusy.
// To the host it costs two entries in the kernel's timer lanes — FIFOs, one
// per fixed delay, beside the timer heap — and some bookkeeping inside its
// scheduling loop: a polling thread that finds nothing is not resumed to
// find it (see WaitPoll).
package marcel

import "mpichmad/internal/vtime"

// Proc is a simulated process: a namespace of threads sharing one virtual
// CPU. It corresponds to one MPI rank.
type Proc struct {
	S    *vtime.Scheduler
	Name string

	cpu *vtime.Sem

	// CPUBusy accumulates total virtual CPU time charged by threads of
	// this process; exposed for tests and the Fig. 9 analysis.
	CPUBusy vtime.Duration
}

// NewProc creates a process with an idle CPU.
func NewProc(s *vtime.Scheduler, name string) *Proc {
	return &Proc{S: s, Name: name, cpu: vtime.NewSem(s, name+".cpu", 1)}
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

// Compute occupies this process's CPU for d of virtual time. Threads of
// the same process queue FIFO behind each other; threads of different
// processes proceed concurrently. d <= 0 is a no-op.
func (p *Proc) Compute(d vtime.Duration) {
	if d <= 0 {
		return
	}
	p.cpu.Acquire()
	p.CPUBusy += d
	p.S.Sleep(d)
	p.cpu.Release()
}

// Yield gives other threads of any process a chance to run without
// advancing virtual time.
func (p *Proc) Yield() { p.S.Yield() }

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
// process's CPU for IdleCost, queueing for it like any Compute; an arrival
// wakes it immediately. With Interval == 0 the wait is a pure blocking
// wait.
//
// The idle burn is the load-bearing detail: an idle TCP poller with a
// costly select keeps stealing CPU slices from the other threads of its
// process, which is exactly the multi-protocol interference the paper
// measures in Figure 9. So every empty poll is simulated — its two timers,
// its turn in the CPU's FIFO, its share of CPUBusy — but none of them wakes
// the thread: the kernel steps a parked poller's cycle itself
// (vtime.Queue.PopPoll) and resumes it only for an item. The simulated
// cost of polling is unchanged; its cost to the host is no longer a
// context switch per poll.
func WaitPoll[T any](p *Proc, q *vtime.Queue[T], spec PollSpec) T {
	if spec.Interval <= 0 {
		return q.Pop()
	}
	return q.PopPoll(spec.Interval, p.cpu, spec.IdleCost, &p.CPUBusy)
}
