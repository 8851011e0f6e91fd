// Package vtime implements a deterministic discrete-event virtual-time
// kernel: cooperative tasks, timers, and synchronization primitives whose
// blocking behaviour advances a simulated clock instead of the wall clock.
//
// The kernel is the substrate for the whole MPICH/Madeleine reproduction:
// every simulated process, Marcel thread, NIC and polling loop is a vtime
// task. Exactly one task runs at any instant, so simulations are fully
// deterministic: the same program produces the same event order and the
// same virtual timestamps on every run, on any machine.
//
// How it is built (scheduler.go), in the terms of the Marcel threads it
// models — a context switch never enters the kernel:
//
//   - A task is a coroutine (iter.Pull), created at its first resume: a
//     scheduler that is wired but never Run owns no goroutine, and Run
//     unwinds every unfinished task before it returns. Run resumes tasks
//     and runs At/After callbacks on its caller's goroutine; there is no
//     go statement, channel or sync type in the package.
//   - One function, pick, pops the ready queue and fires timers. Run
//     calls it to choose whom to resume; a parking task calls it to
//     choose its successor, and when that is the task itself (a Sleep
//     whose timer is the next event, a Yield with nobody else ready) it
//     carries on with no switch at all. Both callers run the same code
//     over the same queues, so the event order does not depend on who
//     called (order_fingerprint_test.go pins it).
//   - A parked task's turn can be served by pick itself. A thread idling in
//     Queue.PopPoll (poll.go) has only bookkeeping to do between items —
//     look at the queue, take or queue for the CPU permit, arm the burn
//     timer, release, arm the next interval — so pick does it when the
//     task comes off the ready queue and resumes it only for an item. A
//     step may touch the kernel's own queues, semaphores and timers, in
//     the order and at the instants the task would have; it may not take
//     an item, call code from outside the package, or skip ahead in time
//     (internal/marcel's poll pin holds it to the loop it replaced).
//   - The two timers of that idle cycle do not go through the heap. Timers
//     fire in (when, seq) order, and timers armed with one fixed delay d
//     are armed in that order already — when = now + d, now never goes
//     back, seq only grows — so a FIFO per delay (a lane) is an exact
//     priority queue for them at O(1) a timer, where the heap of a
//     1024-rank machine is a thousand entries deep and four in five of
//     the timers that cross it belong to the 64 threads that poll TCP.
//     PopPoll finds the lanes of its interval and its cost once per wait
//     (two delays among today's protocols; there are four lanes and the
//     heap takes what does not fit). The scheduler remembers which lane's
//     head fires first and looks at the four heads again only when one of
//     them changes, so pick pays one comparison with the heap's top per
//     timer, lanes or no lanes. The rest of an interval that a lost Push
//     interrupted is not the lane's delay and goes to the heap. Every
//     timer exists and gets its seq at the instant it always did, so the
//     order is unchanged, ties with heap timers included; lane_test.go
//     runs each case against a scheduler that has no lane to give.
//   - A quiet stretch is crossed in one step. When no task is ready, a lane
//     timer is due next, and every live lane timer is a poller's whose cycle
//     runs free — nothing in its queue, its CPU its own, one period for all
//     (fastForward, poll.go) — each of them would go round meeting nobody
//     until the heap's top is due. pick moves them all on by the most whole
//     periods that end before it and within the deadline: timers,
//     generations, burn counts. A uniform shift keeps the lanes' (when, seq)
//     order, and the shifted timers stay before every heap timer, so the
//     skipped timers need no seq and the order is the stepped one; the lane
//     tests cross quiet stretches against the scheduler without lanes, which
//     never skips. A session hung until its deadline costs a few steps.
//   - Blocking formats and allocates nothing: the wait reason is kept in
//     parts and rendered only by a deadlock or deadline dump, timers live
//     by value in a (when, seq) min-heap or a lane, a timeout finds its
//     wait list through a pointer, and every queue is the same head-index
//     ring.
//   - A panic in a task or a callback leaves Run as a *TaskPanic naming
//     the thread and the virtual time.
//
// Host cost per operation (BenchmarkSleepWake, SemHandoff, QueuePushPop,
// ReadyQueueThroughput, SpawnJoin): 62, 313, 484, 240, 1590 ns against
// 2354, 2933, 2162, 965, 2604 ns for goroutines handing a token through
// channels, with 0 allocations on every block path (5 before). An idle
// poll cycle that is stepped (internal/marcel's BenchmarkIdlePoll) is
// 150–200 ns: 610 when each of its two waits was a block of the polling
// thread, 240–280 when its two timers went through the heap. One crossed in
// a quiet stretch of a thousand periods (BenchmarkIdlePollQuiet) is < 1 ns.
package vtime

import "fmt"

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient virtual-time duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Microseconds converts a floating-point microsecond count to a Duration.
// It is the most common unit in the paper's calibration tables.
func Microseconds(us float64) Duration {
	return Duration(us * float64(Microsecond))
}

// Micros reports d in microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports t in microseconds since simulation start.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Add advances a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }
