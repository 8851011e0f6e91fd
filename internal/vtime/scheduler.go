package vtime

import (
	"fmt"
	"iter"
	"maps"
	"runtime/debug"
	"slices"
	"strings"
)

// taskState describes where a task currently lives.
type taskState int

const (
	stateNew taskState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

func (st taskState) String() string {
	switch st {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "?"
}

// Task is a cooperative unit of execution scheduled in virtual time: a
// coroutine that runs only between a resume by the scheduler and its next
// blocking call, so at most one task executes at any moment.
type Task struct {
	s     *Scheduler
	id    int
	name  string
	state taskState
	fn    func()

	// next and stop are the scheduler's handles on the task's coroutine,
	// yield the task's way back: it gives up the CPU and names the task to
	// resume in its place. All three are nil until the first resume —
	// iter.Pull starts a goroutine at once, and a task that never runs
	// (a scheduler that is wired but never Run) must not own one.
	next  func() (*Task, bool)
	stop  func()
	yield func(*Task) bool

	// waitGen is bumped each time the task is woken; timers carry the
	// generation at which they were armed so stale ones can be ignored.
	waitGen  uint64
	daemon   bool
	timedOut bool
	why      waitReason
	// waitList is the wait list a timeout must take the task off.
	waitList *fifo[*Task]
	// poll is the state of the task's Queue.PopPoll (poll.go): nil until
	// its first one and kept for the next, so that the thousands of
	// short-lived tasks that never poll do not carry it.
	poll *pollWait
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// ID returns the task's unique id (assigned in spawn order).
//
//madlint:ignore deadexport tests in another package call it (mpi's progress-thread count)
func (t *Task) ID() int { return t.id }

// waitReason says what a blocked task waits for. It is kept in parts and
// rendered only by a deadlock or deadline dump, so blocking formats and
// allocates nothing.
type waitReason struct {
	what  string // "sem ", "queue ", "event "; empty for a sleep
	name  string
	until Time // sleeps only
}

func (w waitReason) String() string {
	if w.what == "" {
		return fmt.Sprintf("sleep until %v", w.until)
	}
	return w.what + w.name
}

// tornDown is the panic that unwinds a parked task when Run ends without
// it: its deferred functions run, then main swallows the panic.
type tornDown struct{}

// main is the body of the task's coroutine.
func (t *Task) main(yield func(*Task) bool) {
	s := t.s
	t.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil, tornDown:
		default:
			panic(s.taskPanic(r))
		}
	}()
	t.fn()
	t.state = stateDone
	delete(s.tasks, t.id)
	if !t.daemon {
		s.live--
	}
}

// resume gives t the CPU until it parks or ends, and returns the task to
// resume after it (nil when the run is over).
func (t *Task) resume() *Task {
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.main)
	}
	t.s.resumes++
	if next, parked := t.next(); parked {
		return next
	}
	return t.s.pick()
}

// TaskPanic is what Run panics with when a simulated thread or a callback
// panics: the original value plus who was running and when.
type TaskPanic struct {
	Task  string // empty when an At/After callback panicked
	Now   Time
	Value any
	stack []byte
}

func (p *TaskPanic) Error() string {
	who := "callback"
	if p.Task != "" {
		who = "task " + p.Task
	}
	return fmt.Sprintf("vtime: %s at %v: %v\n%s", who, p.Now, p.Value, p.stack)
}

// Unwrap returns the original panic value if it was an error.
//
//madlint:ignore deadexport errors.Unwrap calls it
func (p *TaskPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// taskPanic wraps a recovered panic value once, on the stack it was
// raised on (the coroutine hand-off would lose that stack).
func (s *Scheduler) taskPanic(r any) *TaskPanic {
	if p, ok := r.(*TaskPanic); ok {
		return p
	}
	p := &TaskPanic{Now: s.now, Value: r, stack: debug.Stack()}
	if s.running != nil {
		p.Task = s.running.name
	}
	return p
}

// timer is a pending event of the scheduler: the wake-up of a blocked task
// (a sleep ending, a timeout expiring) or a callback.
type timer struct {
	when Time
	seq  uint64

	task *Task
	gen  uint64 // the task's waitGen at arming time

	fn func()
}

// before is the order timers fire in: by (when, seq).
func (e *timer) before(o *timer) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// timerHeap is a min-heap of timers by value, ordered by (when, seq).
type timerHeap []timer

func (h timerHeap) less(i, j int) bool { return h[i].before(&h[j]) }

func (h *timerHeap) push(e timer) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if !a.less(i, up) {
			break
		}
		a[i], a[up] = a[up], a[i]
		i = up
	}
}

func (h *timerHeap) pop() timer {
	a := *h
	top, n := a[0], len(a)-1
	a[0], a[n] = a[n], timer{}
	a = a[:n]
	*h = a
	for i := 0; ; {
		min := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if a.less(c, min) {
				min = c
			}
		}
		if min == i {
			return top
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
}

// lane is a FIFO of timers all armed with one delay d. when = now + d with
// now never decreasing, and seq always increasing, so such timers are armed
// in (when, seq) order: the FIFO is an exact priority queue, at O(1) a timer
// however deep the heap beside it. The timers of PopPoll's idle cycle live
// here (poll.go); pick takes the earliest of the heap's top and the lanes'
// heads. A lane is free while d is 0 and keeps its delay once it has one.
type lane struct {
	d Duration
	q fifo[timer]
}

// laneFor returns the lane of delay d, taking a free one if d is new, or nil
// — use the heap — when d <= 0 or every lane has another delay.
func (s *Scheduler) laneFor(d Duration) *lane {
	if d <= 0 {
		return nil
	}
	for i := range s.lanes {
		// Lanes are taken front to back and never given up, so the lane
		// that has d, if any, comes before the first free one.
		if ln := &s.lanes[i]; ln.d == d || ln.d == 0 {
			ln.d = d
			return ln
		}
	}
	return nil
}

// fifo is the kernel's one queue — ready tasks, a primitive's waiters, a
// Queue's items, a lane's timers — as a head-index ring: live entries are
// buf[head:], pop advances head in O(1), and the dead prefix is dropped when
// the queue drains (the common case: reuse the whole backing array) or once
// it outgrows the live tail, so the array stays bounded by the peak depth.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int  { return len(q.buf) - q.head }
func (q *fifo[T]) push(v T)  { q.buf = append(q.buf, v) }
func (q *fifo[T]) first() *T { return &q.buf[q.head] }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= 64 && q.head > len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return v
}

// remove takes v out of the middle of q (a waiter whose timeout won).
func remove[T comparable](q *fifo[T], v T) {
	if i := slices.Index(q.buf[q.head:], v); i >= 0 {
		q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1)
	}
}

// Scheduler is the discrete-event simulation kernel. Create one with New,
// spawn tasks with Go, then call Run. All methods other than construction
// and Go-before-Run must be called from inside a running task (or, where
// documented, from an At callback).
type Scheduler struct {
	now  Time
	seq  uint64
	rdy  fifo[*Task]
	tmrs timerHeap
	// lanes is a small fixed array, so finding the lane whose head fires
	// first is a scan of a handful; laneMin caches it (nil: every lane is
	// empty) so that pick pays one comparison per timer, not the scan. It
	// is found again whenever a lane's head changes.
	lanes   [4]lane
	laneMin *lane

	running *Task // nil while pick or a callback runs
	resumes int   // coroutine resumes, counted for the self-resume test
	err     error // why pick ended the run

	nextID int
	live   int // live non-daemon tasks
	tasks  map[int]*Task

	deadline Time
	started  bool

	// OnDeadlock, when set, supplies extra context lines for deadlock
	// and deadline reports — the cluster layer points it at the trace
	// flight recorder's tail so the last events before the hang travel
	// with the error. It runs only when such a report is being built and
	// must not touch the scheduler.
	OnDeadlock func() []string
}

// New creates an empty scheduler with the clock at 0 and no deadline.
func New() *Scheduler {
	return &Scheduler{
		tasks:    make(map[int]*Task),
		deadline: Time(1<<63 - 1),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetDeadline aborts Run with an error if virtual time would advance past
// t. Useful as a watchdog against livelock (e.g. runaway polling loops).
func (s *Scheduler) SetDeadline(t Time) { s.deadline = t }

// Go spawns a new task. It may be called before Run or from a running
// task. The task becomes runnable immediately (FIFO order).
func (s *Scheduler) Go(name string, fn func()) *Task {
	return s.spawn(name, false, fn)
}

// GoDaemon spawns a daemon task: Run returns once every non-daemon task
// has finished, regardless of daemons still blocked or sleeping (they are
// torn down cleanly). Polling threads are daemons.
func (s *Scheduler) GoDaemon(name string, fn func()) *Task {
	return s.spawn(name, true, fn)
}

func (s *Scheduler) spawn(name string, daemon bool, fn func()) *Task {
	t := &Task{s: s, id: s.nextID, name: name, daemon: daemon, state: stateReady, fn: fn}
	s.nextID++
	s.tasks[t.id] = t
	if !daemon {
		s.live++
	}
	s.rdy.push(t)
	return t
}

// Run executes the simulation until every non-daemon task completes.
// It returns a *DeadlockError (live tasks but no pending events) or a
// *DeadlineError (the virtual deadline is exceeded). A panic in a task or
// a callback leaves Run as a *TaskPanic. Run executes callbacks and
// resumes tasks on its caller's goroutine; when it returns, every task
// that has not finished has been unwound (its deferred functions run, in
// id order) and no goroutine is left behind.
func (s *Scheduler) Run() error {
	if s.started {
		return fmt.Errorf("vtime: scheduler already run")
	}
	s.started = true
	defer func() {
		s.running = nil
		for _, t := range s.liveTasks() {
			if t.stop != nil {
				t.stop()
			}
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			panic(s.taskPanic(r)) // a callback run by pick below
		}
	}()
	for t := s.pick(); t != nil; {
		t = t.resume()
	}
	return s.err
}

// pick advances the simulation to the next task that gets the CPU: it
// pops the ready queue or else fires timers in (when, seq) order — moving
// the clock, running callbacks, waking sleepers — until a task is ready.
// It returns nil when the run is over (s.err says why, nil for success).
//
// It has two callers and is the only code that pops either queue, which
// is what makes them interchangeable: Run calls it to choose whom to
// resume, and a parking task calls it to choose its successor — when that
// is the task itself (a Sleep whose timer is the next event, a Yield with
// nobody else ready) the task just carries on, with no switch at all.
func (s *Scheduler) pick() *Task {
	s.running = nil
	for s.live > 0 {
		if s.rdy.len() > 0 {
			t := s.rdy.pop()
			if p := t.poll; p != nil && p.q != nil && !s.pollStep(t, p) {
				continue // an idle poll: its turn is over and it is parked again
			}
			t.state = stateRunning
			s.running = t
			return t
		}
		next, from := s.earliest()
		if next == nil {
			e := &DeadlockError{Now: s.now}
			e.Tasks, e.FlightTail = s.snapshot()
			s.err = e
			return nil
		}
		if next.when > s.deadline {
			e := &DeadlineError{Deadline: s.deadline, Next: next.when}
			e.Tasks, e.FlightTail = s.snapshot()
			s.err = e
			return nil
		}
		var e timer
		if from != nil {
			e = from.q.pop()
			s.laneMin = s.firstLane()
		} else {
			e = s.tmrs.pop()
		}
		if e.when > s.now {
			s.now = e.when
		}
		if e.fn != nil {
			e.fn()
		} else if t := e.task; t.state == stateBlocked && t.waitGen == e.gen {
			if t.waitList != nil {
				remove(t.waitList, t)
			}
			t.timedOut = true
			s.makeReady(t)
		}
	}
	return nil
}

// earliest finds the pending timer that fires next — the heap's top or the
// first of the lanes' heads, whichever comes first in (when, seq) — and the
// lane it heads (nil: the heap). It returns nil when no timer is pending.
func (s *Scheduler) earliest() (next *timer, from *lane) {
	if from = s.laneMin; from != nil {
		next = from.q.first()
	}
	if len(s.tmrs) > 0 && (next == nil || s.tmrs[0].before(next)) {
		return &s.tmrs[0], nil
	}
	return next, from
}

// firstLane scans for the lane whose head fires first.
func (s *Scheduler) firstLane() (first *lane) {
	for i := range s.lanes {
		if ln := &s.lanes[i]; ln.q.len() > 0 && (first == nil || ln.q.first().before(first.q.first())) {
			first = ln
		}
	}
	return first
}

// switchOut gives up the CPU of the current task, which has already put
// itself on the ready queue or parked (park). It returns when the task has
// the CPU again.
func (s *Scheduler) switchOut(t *Task) {
	if next := s.pick(); next != t && !t.yield(next) {
		panic(tornDown{})
	}
}

// TaskState is one live task's entry in a DeadlockError dump: enough to
// tell which rank/thread wedged and what it was waiting for without
// re-running under a debugger.
type TaskState struct {
	ID     int
	Name   string
	State  string // "new", "ready", "running", "blocked", "done"
	Daemon bool
	// BlockedOn is the human-readable wait reason ("sem n0.cpu",
	// "queue tcp.incoming", "event bcast.done", "sleep until ...");
	// empty unless State is "blocked".
	BlockedOn string
}

// DeadlockError is the scheduler's structured deadlock report: every live
// task is blocked and no event is pending, so virtual time can never
// advance. Tests and tooling match it with errors.As and inspect Tasks
// instead of parsing the rendered string.
type DeadlockError struct {
	Now   Time
	Tasks []TaskState
	// FlightTail holds the scheduler's OnDeadlock context lines —
	// typically the trace flight recorder's last events before the
	// hang. Empty when no recorder is attached.
	FlightTail []string
}

// Error renders the classic diagnosable dump: one line per task with its
// state and wait reason.
func (e *DeadlockError) Error() string {
	return renderDump(fmt.Sprintf("vtime: deadlock at %v: no runnable task, no pending event", e.Now), e.Tasks, e.FlightTail)
}

// DeadlineError reports that the next event lies past the virtual
// deadline — the livelock case (a runaway polling loop), where the dump
// shows who sleeps until when.
type DeadlineError struct {
	Deadline   Time
	Next       Time // when the next event was due
	Tasks      []TaskState
	FlightTail []string
}

func (e *DeadlineError) Error() string {
	return renderDump(fmt.Sprintf("vtime: virtual deadline %v exceeded (next event at %v)", e.Deadline, e.Next), e.Tasks, e.FlightTail)
}

func renderDump(head string, tasks []TaskState, tail []string) string {
	var b strings.Builder
	b.WriteString(head)
	b.WriteByte('\n')
	for _, ts := range tasks {
		fmt.Fprintf(&b, "  task %d %q: %s", ts.ID, ts.Name, ts.State)
		if ts.BlockedOn != "" {
			fmt.Fprintf(&b, " on %s", ts.BlockedOn)
		}
		b.WriteByte('\n')
	}
	if len(tail) > 0 {
		fmt.Fprintf(&b, "  last %d trace events before the hang:\n", len(tail))
		for _, line := range tail {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// liveTasks returns every unfinished task, sorted by id.
func (s *Scheduler) liveTasks() []*Task {
	return slices.SortedFunc(maps.Values(s.tasks), func(a, b *Task) int { return a.id - b.id })
}

// snapshot describes every live task, and asks OnDeadlock for its lines.
func (s *Scheduler) snapshot() (tasks []TaskState, tail []string) {
	for _, t := range s.liveTasks() {
		ts := TaskState{ID: t.id, Name: t.name, State: t.state.String(), Daemon: t.daemon}
		if t.state == stateBlocked {
			ts.BlockedOn = t.why.String()
		}
		tasks = append(tasks, ts)
	}
	if s.OnDeadlock != nil {
		tail = s.OnDeadlock()
	}
	return tasks, tail
}

func (s *Scheduler) makeReady(t *Task) {
	t.waitGen++
	t.state = stateReady
	t.waitList = nil
	s.rdy.push(t)
}

// cur returns the currently running task, panicking if called from outside
// task context (e.g. from an At callback, which must not block).
func (s *Scheduler) cur(op string) *Task {
	if s.running == nil {
		panic("vtime: " + op + " called outside a running task")
	}
	return s.running
}

// addTimer arms e on ln, whose delay the caller used for e.when, or on the
// heap when ln is nil.
func (s *Scheduler) addTimer(e timer, ln *lane) {
	e.seq = s.seq
	s.seq++
	if ln == nil {
		s.tmrs.push(e)
	} else if ln.q.push(e); ln.q.len() == 1 {
		s.laneMin = s.firstLane()
	}
}

// Sleep suspends the current task for d of virtual time. d <= 0 yields.
func (s *Scheduler) Sleep(d Duration) {
	t := s.cur("Sleep")
	if d <= 0 {
		s.Yield()
		return
	}
	s.park(t, waitReason{until: s.now.Add(d)}, d, nil, nil)
	s.switchOut(t)
}

// Yield places the current task at the back of the ready queue and runs
// the next one, without advancing time.
func (s *Scheduler) Yield() {
	t := s.cur("Yield")
	t.state = stateReady
	s.rdy.push(t)
	s.switchOut(t)
}

// At schedules fn to run at virtual time when (or now, if in the past).
// fn executes in scheduler context and must not block; it may wake tasks
// (Queue.Push, Event.Fire, Sem.Release) and schedule further callbacks.
func (s *Scheduler) At(when Time, fn func()) {
	if when < s.now {
		when = s.now
	}
	s.addTimer(timer{when: when, fn: fn}, nil)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// park marks t blocked until a wake() call or, if timeout >= 0, until the
// timeout expires, which takes the task off list (the wait list the caller
// has put it on; nil for a sleep). The timeout's timer goes on ln when that
// is not nil: timeout is then ln's delay. Giving up the CPU is the caller's
// next step: switchOut for a running task, nothing more for one pick is
// stepping.
func (s *Scheduler) park(t *Task, why waitReason, timeout Duration, list *fifo[*Task], ln *lane) {
	t.state = stateBlocked
	t.why = why
	t.timedOut = false
	t.waitList = list
	if timeout >= 0 {
		s.addTimer(timer{when: s.now.Add(timeout), task: t, gen: t.waitGen}, ln)
	}
}

// wake moves a blocked task to the ready queue. Safe to call from task or
// scheduler (At callback) context.
func (s *Scheduler) wake(t *Task) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("vtime: wake of task %q in state %v", t.name, t.state))
	}
	s.makeReady(t)
}
