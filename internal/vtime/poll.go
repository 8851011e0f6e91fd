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
