package vtime

// This file provides virtual-time synchronization primitives. They mirror
// the shapes of semaphores / condition variables / channels but block in
// virtual time: a waiting task consumes no simulated CPU and wakes exactly
// when the corresponding release/fire/push event occurs.
//
// All primitives use strict FIFO handoff, which keeps simulations
// deterministic and fair (no barging).

// Sem is a counting semaphore in virtual time. The zero value is unusable;
// create with NewSem.
type Sem struct {
	s       *Scheduler
	name    string
	n       int
	waiters fifo[*Task]
}

// NewSem creates a semaphore holding n initial permits.
func NewSem(s *Scheduler, name string, n int) *Sem {
	return &Sem{s: s, name: name, n: n}
}

// Acquire takes one permit, blocking in virtual time until available.
func (m *Sem) Acquire() {
	t := m.s.cur("Sem.Acquire")
	if m.n > 0 && m.waiters.len() == 0 {
		m.n--
		return
	}
	m.join(t)
	m.s.switchOut(t)
	// Handoff semantics: the releaser consumed our permit for us.
}

// join parks t at the back of the semaphore's FIFO.
func (m *Sem) join(t *Task) {
	m.waiters.push(t)
	m.s.park(t, waitReason{what: "sem ", name: m.name}, -1, nil, nil)
}

// TryAcquire takes a permit without blocking, reporting success.
func (m *Sem) TryAcquire() bool {
	if m.n > 0 && m.waiters.len() == 0 {
		m.n--
		return true
	}
	return false
}

// Release returns one permit, handing it directly to the first waiter if
// any. Safe from scheduler (At) context.
func (m *Sem) Release() {
	if m.waiters.len() > 0 {
		m.s.wake(m.waiters.pop())
		return
	}
	m.n++
}

// Value returns the number of free permits (for tests and introspection).
func (m *Sem) Value() int { return m.n }

// Waiting returns how many tasks are queued on the semaphore.
func (m *Sem) Waiting() int { return m.waiters.len() }

// Event is a one-shot broadcast flag: Wait blocks until Fire, after which
// all current and future Waits return immediately.
type Event struct {
	s       *Scheduler
	name    string
	fired   bool
	waiters []*Task
	subs    []func()
}

// NewEvent creates an unfired event.
func NewEvent(s *Scheduler, name string) *Event {
	return &Event{s: s, name: name}
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Wait blocks the calling task until the event fires.
func (e *Event) Wait() {
	if e.fired {
		return
	}
	t := e.s.cur("Event.Wait")
	e.waiters = append(e.waiters, t)
	e.s.park(t, waitReason{what: "event ", name: e.name}, -1, nil, nil)
	e.s.switchOut(t)
}

// Fire marks the event and wakes every waiter. Safe from scheduler
// context. Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	ws := e.waiters
	e.waiters = nil
	for _, t := range ws {
		e.s.wake(t)
	}
	subs := e.subs
	e.subs = nil
	for _, fn := range subs {
		if fn != nil {
			fn()
		}
	}
}

// OnFire registers fn to run when the event fires; if it already fired,
// fn runs immediately. fn executes in whatever context calls Fire (task
// or scheduler callback) and must not block — it may fire other events,
// which is how multi-event waits (MPI_Waitany, collective progress
// rounds) are built without polling. The returned cancel drops the
// subscription so callers waiting on many events don't leave dead
// closures on the ones that never fired: it empties its slot and trims
// the empty tail, so a long-lived event that is waited on again and again
// (MPI_Waitany polling the same pending request) does not grow.
//
//madlint:ignore deadexport the order pin's programs subscribe with it, and vtimectx's rule names it
func (e *Event) OnFire(fn func()) (cancel func()) {
	if e.fired {
		fn()
		return func() {}
	}
	e.subs = append(e.subs, fn)
	i := len(e.subs) - 1
	return func() {
		if e.fired || i < 0 {
			return
		}
		e.subs[i], i = nil, -1
		n := len(e.subs)
		for n > 0 && e.subs[n-1] == nil {
			n--
		}
		e.subs = e.subs[:n]
	}
}

// Queue is an unbounded FIFO of T with blocking Pop, used as the delivery
// queue of simulated NICs and as inter-thread mailboxes.
type Queue[T any] struct {
	s       *Scheduler
	name    string
	items   fifo[T]
	waiters fifo[*Task]
}

// NewQueue creates an empty queue.
func NewQueue[T any](s *Scheduler, name string) *Queue[T] {
	return &Queue[T]{s: s, name: name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends v and wakes one waiting Pop, if any. Safe from scheduler
// (At) context.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	if q.waiters.len() > 0 {
		q.s.wake(q.waiters.pop())
	}
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Pop removes and returns the head item, blocking in virtual time until
// one is available.
func (q *Queue[T]) Pop() T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		t := q.s.cur("Queue.Pop")
		q.join(t, -1, nil)
		q.s.switchOut(t)
	}
}

// join parks t on the queue's wait list until a Push or, if timeout >= 0,
// until the timeout expires (ln as for park).
func (q *Queue[T]) join(t *Task, timeout Duration, ln *lane) {
	q.waiters.push(t)
	q.s.park(t, waitReason{what: "queue ", name: q.name}, timeout, &q.waiters, ln)
}

// PopTimeout is Pop with a virtual-time timeout; ok=false on timeout.
//
//madlint:ignore deadexport the poll pin's reference loop (waitPollLoop) calls it
func (q *Queue[T]) PopTimeout(d Duration) (T, bool) {
	deadline := q.s.Now().Add(d)
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		remain := deadline.Sub(q.s.Now())
		if remain < 0 {
			var zero T
			return zero, false
		}
		t := q.s.cur("Queue.PopTimeout")
		q.join(t, remain, nil)
		if q.s.switchOut(t); t.timedOut {
			// One last chance: an item may have been pushed at the
			// exact deadline tick after the timer fired.
			if v, ok := q.TryPop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
	}
}
