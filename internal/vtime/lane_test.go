package vtime

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// Tests of the timer lanes (scheduler.go): a lane is only a cheaper place
// for a timer than the heap, so a program must run event for event as it
// does on a scheduler that has no lane to give — the kernel as it was. That
// scheduler never crosses a quiet stretch in one step either (fastForward in
// poll.go moves lane timers only), so it is the reference for that too.

// heapOnly is a scheduler whose lanes are all taken by delays nobody asks
// for, so that every timer of every PopPoll goes to the heap.
func heapOnly() *Scheduler {
	s := New()
	for i := range s.lanes {
		s.lanes[i].d = Duration(1<<62) + Duration(i)
	}
	return s
}

// laneDelays lists the delays that have a lane, in the order they got one.
func laneDelays(s *Scheduler) (ds []Duration) {
	for i := range s.lanes {
		if d := s.lanes[i].d; d != 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// pollers starts one daemon per {interval, cost} pair, every one idling on a
// queue of its own for ever, and returns what each has burned. They share a
// CPU when shared is set, so that burns queue behind each other.
func pollers(s *Scheduler, shared bool, specs ...[2]Duration) []Duration {
	busy := make([]Duration, len(specs))
	cpu := NewSem(s, "cpu", 1)
	for i, spec := range specs {
		q, cpu := NewQueue[int](s, "rx"), cpu
		if !shared {
			cpu = NewSem(s, "cpu", 1)
		}
		s.GoDaemon("poller", func() { q.PopPoll(spec[0], cpu, spec[1], &busy[i]) })
	}
	return busy
}

// watch logs what the pollers have burned at every nanosecond up to end: an
// idle cycle is served inside pick and calls nobody, so its effects are
// what a test can see of it.
func watch(s *Scheduler, end Time, busy []Duration, logf func(string, ...any)) {
	s.Go("watch", func() {
		for s.Now() < end {
			s.Sleep(1)
			logf("busy %v", busy)
		}
	})
}

var lanePrograms = []struct {
	name string
	// prog wires the program on s; it logs through logf and returns a last
	// check, run after Run, of what the lanes version must have done.
	prog func(t *testing.T, s *Scheduler, logf func(string, ...any)) (after func())
}{
	{"two pollers, four delays", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		busy := pollers(s, false, [2]Duration{10, 2}, [2]Duration{15, 3})
		watch(s, 100, busy, logf)
		return func() {
			// Timeouts at 10, 22, ... 94 and at 15, 33, ... 87.
			if want := []Duration{8 * 2, 5 * 3}; !slices.Equal(busy, want) {
				t.Errorf("burned %v, want %v", busy, want)
			}
			if got, want := laneDelays(s), []Duration{10, 2, 15, 3}; !slices.Equal(got, want) {
				t.Errorf("lanes of delays %v, want %v", got, want)
			}
		}
	}},
	{"one's interval is the other's cost: one lane, two uses", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		busy := pollers(s, true, [2]Duration{10, 4}, [2]Duration{4, 1})
		watch(s, 100, busy, logf)
		return func() {
			if got, want := laneDelays(s), []Duration{10, 4, 1}; !slices.Equal(got, want) {
				t.Errorf("lanes of delays %v, want %v", got, want)
			}
		}
	}},
	{"more delays than lanes: the rest use the heap", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		busy := pollers(s, true, [2]Duration{10, 2}, [2]Duration{15, 3}, [2]Duration{7, 5}, [2]Duration{5, 0})
		watch(s, 100, busy, logf)
		return func() {
			if got, want := laneDelays(s), []Duration{10, 2, 15, 3}; !slices.Equal(got, want) {
				t.Errorf("lanes of delays %v, want %v", got, want)
			}
			if busy[2] == 0 {
				t.Error("the poller without a lane never burned")
			}
		}
	}},
	{"a stale lane entry is skipped", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		busy := make([]Duration, 1)
		s.GoDaemon("poller", func() {
			for {
				logf("got %d", q.PopPoll(10, cpu, 2, &busy[0]))
			}
		})
		// The wait that the Push at 3 ends leaves its timer, due at 10, at
		// the head of the lane; the next wait's, due at 13, queues behind it.
		s.Go("feeder", func() {
			s.Sleep(3)
			q.Push(1)
		})
		watch(s, 50, busy, logf)
		return func() {
			// Timeouts at 13, 25, 37, 49 — none at 10.
			if busy[0] != 4*2 {
				t.Errorf("burned %v, want %v", busy[0], Duration(4*2))
			}
		}
	}},
	{"woken for an item a thief took: the rest of the interval is a heap timer", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		busy := make([]Duration, 1)
		s.GoDaemon("poller", func() { q.PopPoll(10, cpu, 2, &busy[0]) })
		s.Go("thief", func() {
			s.Sleep(3)
			q.Push(1)
			q.TryPop()
		})
		watch(s, 30, busy, logf)
		return func() {
			// The interval still ends at 10: timeouts at 10 and 22.
			if busy[0] != 2*2 {
				t.Errorf("burned %v, want %v", busy[0], Duration(2*2))
			}
		}
	}},
	{"deadline, the only pending timer in a lane", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		var busy Duration
		s.Go("poller", func() { q.PopPoll(10, cpu, 2, &busy) })
		s.SetDeadline(50)
		return func() {
			var de *DeadlineError
			if !errors.As(s.err, &de) || de.Next != 58 || len(s.tmrs) != 0 {
				t.Errorf("want a DeadlineError for the lane's timer at 58 over an empty heap, got %v (heap %d deep)", s.err, len(s.tmrs))
			}
		}
	}},
	{"deadlock once the last lane entry, a stale one, is gone", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		never := NewEvent(s, "never")
		var busy Duration
		s.GoDaemon("poller", func() { logf("got %d", q.PopPoll(10, cpu, 2, &busy)) })
		s.Go("stuck", func() {
			s.Sleep(3)
			q.Push(1)
			never.Wait()
		})
		return func() {
			var de *DeadlockError
			if !errors.As(s.err, &de) || de.Now != 10 {
				t.Errorf("want a DeadlockError at 10, when the stale timer has come and gone, got %v", s.err)
			}
		}
	}},
	{"deadlock once the last lane entry, a stale one of a task blocked elsewhere, is gone", func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		never := NewEvent(s, "never")
		var busy Duration
		s.Go("poller", func() {
			logf("got %d", q.PopPoll(10, cpu, 2, &busy))
			never.Wait()
		})
		s.Go("feeder", func() {
			s.Sleep(3)
			q.Push(1)
		})
		return func() {
			var de *DeadlockError
			if !errors.As(s.err, &de) || de.Now != 10 {
				t.Errorf("want a DeadlockError at 10, when the stale timer has come and gone, got %v", s.err)
			}
		}
	}},
}

func TestLanesMatchHeap(t *testing.T) {
	for _, p := range lanePrograms {
		t.Run(p.name, func(t *testing.T) { matchHeap(t, p.prog) })
	}
}

// matchHeap runs prog on a scheduler with lanes and on one without, fails t
// unless the two logs are the same, and runs prog's last check. It returns
// how many idle cycles the scheduler with lanes crossed in one step
// (fastForward): each is two timers it never armed, and the timers of both
// schedulers are numbered alike otherwise.
func matchHeap(t *testing.T, prog func(t *testing.T, s *Scheduler, logf func(string, ...any)) (after func())) (crossed uint64) {
	t.Helper()
	run := func(s *Scheduler) (log []string, after func()) {
		after = prog(t, s, func(format string, args ...any) {
			log = append(log, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
		})
		err := s.Run()
		return append(log, fmt.Sprintf("end %d: %v", s.Now(), err)), after
	}
	ref, s := heapOnly(), New()
	want, _ := run(ref)
	got, after := run(s)
	if !slices.Equal(got, want) {
		t.Errorf("with lanes:\n%q\nheap only:\n%q", got, want)
	}
	after()
	return (ref.seq - s.seq) / 2
}

// glance logs what the pollers have burned at seeded instants up to end, one
// to a few dozen of their periods apart. The stretches in between are quiet,
// and a kernel that crosses one in a step (fastForward) must land where
// stepping through it does.
func glance(s *Scheduler, seed int, end Time, busy []Duration, logf func(string, ...any)) {
	r := orderRand(seed)
	s.Go("glance", func() {
		for s.Now() < end {
			s.Sleep(Duration(1 + r.n(400)))
			logf("busy %v", busy)
		}
	})
}

// loopPoller starts a daemon that pops q for ever under PopPoll(10, cpu, 2),
// logging each item: a period of 12, with interval ends at 10, 22, 34, ...
// and burn ends at 12, 24, 36, ... until an item restarts the cycle.
func loopPoller(s *Scheduler, q *Queue[int], cpu *Sem, busy *Duration, logf func(string, ...any)) {
	s.GoDaemon("poller", func() {
		for {
			logf("got %d", q.PopPoll(10, cpu, 2, busy))
		}
	})
}

// quietPrograms are lanePrograms whose observers wake only at glance's
// sparse instants, so that the pollers have quiet stretches to cross; each
// runs under several seeds. skips says fastForward must have crossed some
// idle cycles in every run.
var quietPrograms = []struct {
	name  string
	skips bool
	prog  func(s *Scheduler, seed int, logf func(string, ...any))
}{
	{"a Push on an interval end, another mid-burn", true, func(s *Scheduler, seed int, logf func(string, ...any)) {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		busy := make([]Duration, 1)
		loopPoller(s, q, cpu, &busy[0], logf)
		s.Go("feeder", func() {
			s.Sleep(10 + 12*40)
			q.Push(1) // the cycle restarts at 490: burns from 500 + 12j
			s.Sleep(10 + 12*30 + 1)
			q.Push(2) // at 861, a nanosecond into the burn from 860
		})
		glance(s, seed, 1500, busy, logf)
	}},
	{"heap timers on interval and burn ends", true, func(s *Scheduler, seed int, logf func(string, ...any)) {
		busy := pollers(s, false, [2]Duration{10, 2})
		// Armed after the poller's first timer and long before the ones due
		// at those instants: they fire first, and the timer the poller arms
		// for such an instant must not be a shifted one, whose old seq would
		// put it ahead.
		s.Go("arm", func() {
			s.Sleep(1)
			for _, at := range []Time{10 + 12*40, 12 * 60, 10 + 12*75} {
				s.At(at, func() { logf("at: busy %v", busy) })
			}
		})
		glance(s, seed, 1200, busy, logf)
	}},
	{"two pollers on one CPU", false, func(s *Scheduler, seed int, logf func(string, ...any)) {
		// Both are idle with their CPU free at the start, but their burns
		// take more than a period between them: they queue for the CPU, and
		// each goes round less often than once a period.
		busy := pollers(s, true, [2]Duration{4, 8}, [2]Duration{6, 6})
		glance(s, seed, 1500, busy, logf)
	}},
	{"two periods", false, func(s *Scheduler, seed int, logf func(string, ...any)) {
		busy := pollers(s, false, [2]Duration{10, 2}, [2]Duration{9, 2})
		glance(s, seed, 1500, busy, logf)
	}},
	{"a poller that never burns", false, func(s *Scheduler, seed int, logf func(string, ...any)) {
		// A cost <= 0 skips the burn: the second one's period is 13, not 12,
		// and the third one's 12, not 0.
		busy := pollers(s, false, [2]Duration{10, 2}, [2]Duration{13, -1}, [2]Duration{12, -12})
		glance(s, seed, 1500, busy, logf)
	}},
	{"a poller beside a compute thread", true, func(s *Scheduler, seed int, logf func(string, ...any)) {
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		busy := make([]Duration, 1)
		s.GoDaemon("poller", func() { q.PopPoll(10, cpu, 2, &busy[0]) })
		r := orderRand(seed)
		s.GoDaemon("compute", func() {
			for {
				cpu.Acquire()
				s.Sleep(Duration(1 + r.n(300)))
				cpu.Release()
				s.Sleep(Duration(1 + r.n(300)))
			}
		})
		glance(s, seed, 1500, busy, logf)
	}},
	{"two pollers and a reader on one queue", true, func(s *Scheduler, seed int, logf func(string, ...any)) {
		q := NewQueue[int](s, "rx")
		busy := make([]Duration, 2)
		for i := range busy {
			cpu := NewSem(s, "cpu", 1)
			s.GoDaemon("poller", func() {
				if i > 0 {
					s.Sleep(2)
				}
				for {
					logf("poller %d got %d", i, q.PopPoll(4, cpu, 8, &busy[i]))
				}
			})
		}
		// The reader joins the wait list between the two pollers and stays
		// on it until it gets an item; they leave it and rejoin it at its
		// end every period. Whoever is first on it gets the next item.
		s.Go("reader", func() { logf("reader got %d", q.Pop()) })
		r := orderRand(seed)
		s.Go("feeder", func() {
			for i := range 4 {
				s.Sleep(Duration(1 + r.n(300)))
				q.Push(i)
			}
		})
		glance(s, seed, 1500, busy, logf)
	}},
	{"a stale lane timer, shifted and left behind", true, func(s *Scheduler, seed int, logf func(string, ...any)) {
		qa, qb := NewQueue[int](s, "rx.a"), NewQueue[int](s, "rx.b")
		busy := make([]Duration, 2)
		loopPoller(s, qb, NewSem(s, "cpu.b", 1), &busy[1], logf)
		s.GoDaemon("a", func() {
			s.Sleep(1)
			for {
				logf("a got %d", qa.PopPoll(10, NewSem(s, "cpu.a", 1), 2, &busy[0]))
			}
		})
		s.Go("feeders", func() {
			// The Push at 3 wakes a for an item a thief takes: its lane timer
			// due at 11 goes stale, the rest of its interval is a heap timer.
			s.Sleep(3)
			qa.Push(1)
			qa.TryPop()
			// This one a takes: its lane timer due at 10 + 12*20 + 1 stays
			// behind b's due at 10 + 12*20, stale, when the next interval
			// starts behind them both.
			s.Sleep(12*20 + 4 - 3)
			qa.Push(2)
		})
		glance(s, seed, 1200, busy, logf)
	}},
	{"a deadline inside a quiet stretch, a heap timer beyond it", true, func(s *Scheduler, seed int, logf func(string, ...any)) {
		busy := pollers(s, false, [2]Duration{10, 2}, [2]Duration{7, 5})
		glance(s, seed, 5000, busy, logf)
		// Mid-burn for both, so that the dump shows when each burn ends.
		s.SetDeadline(Time(12*(100+seed) + 11))
	}},
}

func TestQuietStretchesMatchHeap(t *testing.T) {
	for _, p := range quietPrograms {
		t.Run(p.name, func(t *testing.T) {
			for seed := range 8 {
				crossed := matchHeap(t, func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
					p.prog(s, seed, logf)
					return func() {}
				})
				if p.skips && crossed == 0 {
					t.Errorf("seed %d: no idle cycle was crossed in one step", seed)
				}
			}
		})
	}
}

// TestRandomQuietStretchesMatchHeap runs seeded mixes of the cases above:
// two to five pollers, most of them of one period, each on a queue and a CPU
// of its own or an earlier one's, fed now and then by a task or a callback,
// beside a compute thread on one CPU or none.
func TestRandomQuietStretchesMatchHeap(t *testing.T) {
	splits := [][2]Duration{{10, 2}, {7, 5}, {4, 8}, {6, 6}, {10, 2}, {9, 2}, {12, 0}, {13, -1}, {12, -12}}
	var crossed uint64
	for seed := range 300 {
		crossed += matchHeap(t, func(t *testing.T, s *Scheduler, logf func(string, ...any)) func() {
			r := orderRand(seed)
			n := 2 + r.n(4)
			busy := make([]Duration, n)
			qs, cpus := make([]*Queue[int], n), make([]*Sem, n)
			for i := range n {
				qs[i], cpus[i] = NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
				if i > 0 && r.n(4) == 0 {
					qs[i] = qs[r.n(i)]
				}
				if i > 0 && r.n(4) == 0 {
					cpus[i] = cpus[r.n(i)]
				}
				spec, start := splits[r.n(len(splits))], Duration(r.n(12))
				s.GoDaemon("poller", func() {
					s.Sleep(start)
					for {
						logf("poller %d got %d", i, qs[i].PopPoll(spec[0], cpus[i], spec[1], &busy[i]))
					}
				})
			}
			s.Go("feeder", func() {
				for j := range 6 {
					s.Sleep(Duration(1 + r.n(400)))
					if q := qs[r.n(n)]; r.n(3) > 0 {
						q.Push(j)
					} else {
						s.After(Duration(r.n(50)), func() { q.Push(j) })
					}
				}
			})
			if r.n(2) == 0 {
				cpu := cpus[r.n(n)]
				s.GoDaemon("compute", func() {
					for {
						cpu.Acquire()
						s.Sleep(Duration(1 + r.n(200)))
						cpu.Release()
						s.Sleep(Duration(1 + r.n(400)))
					}
				})
			}
			glance(s, seed, 2000, busy, logf)
			return func() {}
		})
	}
	if crossed == 0 {
		t.Error("no idle cycle was crossed in one step in any program")
	}
	t.Logf("%d idle cycles crossed in one step", crossed)
}

// A lane timer and a heap timer due at the same instant fire in the order
// they were armed, whichever came first. The callback sees whether the
// poller's timeout — which takes the CPU and charges the burn in the turn
// that follows it — came before it.
func TestLaneAndHeapTimersTieInArmingOrder(t *testing.T) {
	for _, laneFirst := range []bool{true, false} {
		s := New()
		q, cpu := NewQueue[int](s, "rx"), NewSem(s, "cpu", 1)
		var busy, seen Duration
		poll := func() { q.PopPoll(10, cpu, 2, &busy) }
		arm := func() { s.After(10, func() { seen = busy }) }
		if laneFirst {
			s.GoDaemon("poller", poll)
			s.Go("main", func() { arm(); s.Sleep(20) })
		} else {
			s.GoDaemon("poller", func() { arm(); poll() })
			s.Go("main", func() { s.Sleep(20) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]Duration{true: 2, false: 0}[laneFirst]; seen != want || busy != 2 {
			t.Errorf("lane timer armed first: %v; the callback at 10 saw %v burned (%v in all), want %v (2 in all)",
				laneFirst, seen, busy, want)
		}
	}
}
