package vtime

// pollWait is the state of a task inside Queue.PopPoll; q is nil outside
// one. The Task owns it from its first PopPoll on, so a wait and its idle
// cycles allocate nothing.
type pollWait struct {
	q        pollQueue
	cpu      *Sem
	busy     *Duration
	interval Duration
	cost     Duration
	deadline Time // end of the current interval
	phase    pollPhase
	// The lanes of delay interval and cost, where the cycle's two timers
	// go; nil sends them to the heap.
	intervalLane, burnLane *lane
}

// pollPhase says where a parked poller is in its idle cycle.
type pollPhase uint8

const (
	pollIdle pollPhase = iota // on the queue's wait list, the interval's timer armed
	pollCPU                   // in the semaphore's FIFO
	pollBurn                  // holding the permit until the burn timer fires
)

// pollQueue is what a step needs of a Queue[T], whatever T is: whether it
// is empty and a way onto its wait list. It never sees an item.
type pollQueue interface {
	Len() int
	join(t *Task, timeout Duration, ln *lane)
}

// PopPoll is Pop under a polling discipline: each time interval (> 0)
// passes without an item the caller holds a permit of cpu for cost —
// queueing for it like any Acquire, adding cost to *busy when it is granted;
// cost <= 0 skips the burn — then looks again and starts the next interval.
// A Push wakes it at once while it waits out an interval; an item pushed
// during a burn is found at the burn's end. The event order is that of the
// loop `PopTimeout(interval)`, on timeout `Acquire, Sleep(cost), Release`,
// ties included, but an idle cycle never resumes the caller: pick serves
// its turns (pollStep), and the caller runs again when there is an item.
func (q *Queue[T]) PopPoll(interval Duration, cpu *Sem, cost Duration, busy *Duration) T {
	if interval <= 0 {
		panic("vtime: PopPoll needs an interval > 0")
	}
	if q.items.len() == 0 {
		t := q.s.cur("Queue.PopPoll")
		if t.poll == nil {
			t.poll = new(pollWait)
		}
		*t.poll = pollWait{q: q, cpu: cpu, busy: busy, interval: interval, cost: cost,
			intervalLane: q.s.laneFor(interval), burnLane: q.s.laneFor(cost)}
		q.s.pollInterval(t, t.poll)
		q.s.switchOut(t)
		t.poll.q = nil
	}
	return q.items.pop()
}

// pollInterval starts an interval of t's PopPoll.
func (s *Scheduler) pollInterval(t *Task, p *pollWait) {
	p.phase, p.deadline = pollIdle, s.now.Add(p.interval)
	p.q.join(t, p.interval, p.intervalLane)
}

// pollStep serves the turn of a task parked in PopPoll, from pick: it does
// what the task would do with the CPU — look at the queue, take or queue
// for the permit, burn, release, start the next interval — and parks it
// again, or reports that there is an item, the one thing the task must be
// resumed for. A step arms each timer at the instant and in the turn the
// task would have (so it gets the same seq), wakes others only through the
// ready queue, and runs no code from outside the package.
func (s *Scheduler) pollStep(t *Task, p *pollWait) bool {
	switch p.phase {
	case pollIdle:
		if p.q.Len() > 0 {
			return true // pushed, or found by the last look at the interval's end
		}
		if !t.timedOut {
			// Woken by a Push whose item somebody else took. The rest of the
			// interval is not the lane's delay: this timer goes on the heap.
			p.q.join(t, p.deadline.Sub(s.now), nil)
			return false
		}
		if p.cost <= 0 {
			break
		}
		if !p.cpu.TryAcquire() {
			p.phase = pollCPU
			p.cpu.join(t)
			return false
		}
		fallthrough
	case pollCPU: // the permit is ours
		p.phase = pollBurn
		*p.busy += p.cost
		s.park(t, waitReason{until: s.now.Add(p.cost)}, p.cost, nil, p.burnLane)
		return false
	case pollBurn:
		p.cpu.Release()
		if p.q.Len() > 0 {
			return true // ahead of the waiter Release woke, as a running task is
		}
	}
	s.pollInterval(t, p)
	return false
}

// fastForward crosses a quiet stretch in one step. pick calls it when no
// task is ready and next, the timer due first, is a lane's. The stretch is
// quiet when every live lane timer is a poller's whose cycle runs free: its
// queue is empty; its CPU is free, or held by it mid-burn, with nobody
// queued and no other such poller on it; its cost is > 0 and its period,
// interval + cost, is the one of them all. Then each poller goes round and
// round, meeting nobody, until the heap's top is due, and fastForward moves
// every one on by the most whole periods k that keep the last lane timer
// before the heap's top and within the deadline: its timer k periods later,
// its generation 2k wakes on (its timer's too), its interval end or burn end
// later, k burns more on its account. Stale lane timers move with the rest,
// so that each lane stays in (when, seq) order.
//
// The shift is exact. A uniform shift keeps the lanes' (when, seq) order,
// which is the order the skipped cycles would have kept, and every shifted
// timer stays before each heap timer, so it never ties with a timer armed
// before the step that did not move with it: no seq has to be reserved for
// the skipped timers. Each shifted timer fires before anything else runs,
// so where a poller stands on its queue's wait list is, by then, where
// stepping puts it.
func (s *Scheduler) fastForward(next *timer) {
	t := next.task
	if t.state != stateBlocked || t.waitGen != next.gen || t.poll.cost <= 0 {
		// A stale head goes first: were every lane timer stale, the last one
		// would be the instant a deadlock is reported at, and none may move.
		// A poller that does not burn has no period to cross (see the scan).
		return
	}
	horizon, period := s.deadline, t.poll.interval+t.poll.cost
	if len(s.tmrs) > 0 {
		horizon = min(horizon, s.tmrs[0].when-1)
	}
	k := int64(horizon.Sub(s.laneLast) / period)
	if k <= 0 {
		return
	}
	s.mark++
	for i := range s.lanes {
		q := &s.lanes[i].q
		for _, e := range q.buf[q.head:] {
			t := e.task
			if t.state != stateBlocked || t.waitGen != e.gen {
				continue
			}
			p := t.poll
			if p.cost <= 0 || p.interval+p.cost != period || p.q.Len() > 0 || p.cpu.waiters.len() > 0 || p.cpu.mark == s.mark ||
				p.phase == pollIdle && p.cpu.n == 0 {
				return
			}
			p.cpu.mark = s.mark
		}
	}
	d := Duration(k) * period
	for i := range s.lanes {
		q := &s.lanes[i].q
		for j := q.head; j < len(q.buf); j++ {
			e := &q.buf[j]
			if t := e.task; t.state == stateBlocked && t.waitGen == e.gen {
				p := t.poll
				t.waitGen += 2 * uint64(k)
				e.gen = t.waitGen
				p.deadline = p.deadline.Add(d)
				if p.phase == pollBurn {
					t.why.until = t.why.until.Add(d)
				}
				*p.busy += Duration(k) * p.cost
			}
			e.when = e.when.Add(d)
		}
	}
	s.laneLast = s.laneLast.Add(d)
}
