package vtime

import (
	"errors"
	"testing"
)

// Guarantees of PopPoll beyond its event order (which internal/marcel's
// poll pin holds against the loop it replaced): an idle cycle resumes
// nobody and allocates nothing.

// Two pollers, each on a CPU of its own, idle out of phase until the
// deadline: the two resumes that started them are all the run costs — the
// second one's pick serves every cycle of both.
func TestIdlePollsDoNotResume(t *testing.T) {
	s := New()
	cost := []Duration{8 * Microsecond, 5 * Microsecond}
	busy := make([]Duration, 2)
	for i := range busy {
		q := NewQueue[int](s, "rx")
		cpu := NewSem(s, "cpu", 1)
		s.Go("poller", func() { q.PopPoll(25*Microsecond, cpu, cost[i], &busy[i]) })
	}
	s.SetDeadline(Time(1000 * 33 * Microsecond))
	var de *DeadlineError
	if err := s.Run(); !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	for i, b := range busy {
		if b < 1000*cost[i] {
			t.Errorf("poller %d burned %v, want at least 1000 cycles of %v", i, b, cost[i])
		}
	}
	if s.resumes != 2 {
		t.Fatalf("%d coroutine resumes for two pollers idling 1000 intervals each, want 2", s.resumes)
	}
}

func TestPopPollDoesNotAllocate(t *testing.T) {
	t.Run("item after a block", func(t *testing.T) {
		s := New()
		q := NewQueue[int](s, "q")
		cpu := NewSem(s, "cpu", 1)
		var busy Duration
		s.GoDaemon("pusher", func() {
			for {
				s.Yield() // let main block first
				q.Push(1)
			}
		})
		n := allocsInTask(t, s, func() {
			if q.Len() != 0 {
				t.Error("the PopPoll under test would not block")
			}
			q.PopPoll(25*Microsecond, cpu, 8*Microsecond, &busy)
		})
		if n != 0 || busy != 0 {
			t.Fatalf("PopPoll woken by a Push: %v allocs/op and %v burned, want 0 and 0", n, busy)
		}
	})
	// Each wait idles through three cycles before its item comes; with the
	// CPU contended every burn first queues behind a compute thread.
	for _, contended := range []bool{false, true} {
		name := "idle cycles, CPU free"
		if contended {
			name = "idle cycles, CPU contended"
		}
		t.Run(name, func(t *testing.T) {
			s := New()
			q := NewQueue[int](s, "q")
			cpu := NewSem(s, "cpu", 1)
			var busy Duration
			s.GoDaemon("pusher", func() {
				for {
					s.Sleep(110 * Microsecond)
					q.Push(1)
				}
			})
			queued := 0 // burns that had to wait for the compute thread
			if contended {
				s.GoDaemon("compute", func() {
					for {
						cpu.Acquire()
						s.Sleep(20 * Microsecond)
						queued += cpu.Waiting()
						cpu.Release()
						s.Sleep(10 * Microsecond)
					}
				})
			}
			waits := 0
			n := allocsInTask(t, s, func() {
				q.PopPoll(25*Microsecond, cpu, 8*Microsecond, &busy)
				waits++
			})
			if n != 0 {
				t.Fatalf("%v allocs per PopPoll, want 0", n)
			}
			if cycles := float64(busy) / float64(8*Microsecond) / float64(waits); cycles < 2 {
				t.Fatalf("%.1f idle cycles per wait: the case under test did not occur", cycles)
			}
			if contended && queued == 0 {
				t.Fatalf("no burn queued for the CPU in %d waits: the case under test did not occur", waits)
			}
		})
	}
}
