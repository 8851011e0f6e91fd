package vtime

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// Tests of the timer lanes (scheduler.go): a lane is only a cheaper place
// for a timer than the heap, so a program must run event for event as it
// does on a scheduler that has no lane to give — the kernel as it was.

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
}

func TestLanesMatchHeap(t *testing.T) {
	for _, p := range lanePrograms {
		t.Run(p.name, func(t *testing.T) {
			run := func(s *Scheduler) (log []string, after func()) {
				after = p.prog(t, s, func(format string, args ...any) {
					log = append(log, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
				})
				err := s.Run()
				return append(log, fmt.Sprintf("end %d: %v", s.Now(), err)), after
			}
			want, _ := run(heapOnly())
			got, after := run(New())
			if !slices.Equal(got, want) {
				t.Errorf("with lanes:\n%q\nheap only:\n%q", got, want)
			}
			after()
		})
	}
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
