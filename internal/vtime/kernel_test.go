package vtime

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// Guarantees of the coroutine kernel: nothing allocated on the block
// path, no switch when a task wakes itself, no goroutine before Run or
// after it, failures that name their thread.

// allocsInTask measures op inside a running task (blocking calls need one).
func allocsInTask(t *testing.T, s *Scheduler, op func()) float64 {
	t.Helper()
	var avg float64
	s.Go("main", func() { avg = testing.AllocsPerRun(1000, op) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return avg
}

func TestBlockPathDoesNotAllocate(t *testing.T) {
	t.Run("Sleep", func(t *testing.T) {
		s := New()
		if n := allocsInTask(t, s, func() { s.Sleep(Microsecond) }); n != 0 {
			t.Fatalf("Sleep: %v allocs/op, want 0", n)
		}
	})
	t.Run("Sem block and wake", func(t *testing.T) {
		s := New()
		sem := NewSem(s, "sem", 0)
		s.GoDaemon("releaser", func() {
			for {
				s.Yield() // let main block first
				sem.Release()
			}
		})
		n := allocsInTask(t, s, func() {
			if sem.Value() != 0 {
				t.Error("the Acquire under test would not block")
			}
			sem.Acquire()
		})
		if n != 0 {
			t.Fatalf("Sem.Acquire that blocks: %v allocs/op, want 0", n)
		}
	})
	t.Run("Queue.Pop block and wake", func(t *testing.T) {
		s := New()
		q := NewQueue[int](s, "q")
		s.GoDaemon("pusher", func() {
			for {
				s.Yield() // let main block first
				q.Push(1)
			}
		})
		n := allocsInTask(t, s, func() {
			if q.Len() != 0 {
				t.Error("the Pop under test would not block")
			}
			q.Pop()
		})
		if n != 0 {
			t.Fatalf("Queue.Pop that blocks: %v allocs/op, want 0", n)
		}
	})
	t.Run("PopTimeout that times out", func(t *testing.T) {
		s := New()
		q := NewQueue[int](s, "q")
		n := allocsInTask(t, s, func() {
			if _, ok := q.PopTimeout(Microsecond); ok {
				t.Error("PopTimeout on an empty queue returned an item")
			}
		})
		if n != 0 {
			t.Fatalf("PopTimeout that times out: %v allocs/op, want 0", n)
		}
	})
}

// A task whose own timer is the next event carries on without a switch:
// 1000 sleeps cost the one resume that started the task.
func TestSelfResumeDoesNotSwitch(t *testing.T) {
	s := New()
	s.Go("main", func() {
		for i := 0; i < 1000; i++ {
			s.Sleep(Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(1000*Microsecond) {
		t.Fatalf("Now = %v, want 1000us", s.Now())
	}
	if s.resumes != 1 {
		t.Fatalf("%d coroutine resumes for 1000 sleeps of a lone task, want 1", s.resumes)
	}
}

func TestNoGoroutineBeforeRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	for i := 0; i < 100; i++ {
		s.GoDaemon("poller", func() { s.Sleep(Second) })
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after wiring 100 tasks, %d before: a task that has not run must not own one", n, before)
	}
}

// However Run ends, the tasks it leaves unfinished are unwound before it
// returns: their deferred functions have run and their goroutines are gone.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, end := range []string{"success", "deadlock", "deadline", "panic"} {
		t.Run(end, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New()
			q := NewQueue[int](s, "rx")
			deferred := false
			s.GoDaemon("poller", func() {
				defer func() { deferred = true }()
				func() { q.Pop() }() // parked mid-stack
			})
			s.GoDaemon("ticker", func() {
				if end == "deadlock" {
					return // its timers would keep the run alive
				}
				for {
					s.Sleep(Microsecond)
				}
			})
			s.Go("main", func() {
				s.Sleep(10 * Microsecond)
				switch end {
				case "deadlock":
					NewEvent(s, "never").Wait()
				case "deadline":
					s.SetDeadline(s.Now().Add(5 * Microsecond))
					s.Sleep(Second)
				case "panic":
					panic("boom")
				}
			})
			var err error
			func() {
				defer func() {
					if r := recover(); (r != nil) != (end == "panic") {
						t.Errorf("Run panicked with %v", r)
					}
				}()
				err = s.Run()
			}()
			var dl *DeadlockError
			var dd *DeadlineError
			switch {
			case end == "success" && err != nil,
				end == "deadlock" && !errors.As(err, &dl),
				end == "deadline" && !errors.As(err, &dd):
				t.Fatalf("Run = %v", err)
			}
			if !deferred {
				t.Error("the parked daemon's deferred function did not run")
			}
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}

// runPanic returns what Run panicked with.
func runPanic(t *testing.T, s *Scheduler) *TaskPanic {
	t.Helper()
	var r any
	func() {
		defer func() { r = recover() }()
		t.Errorf("Run returned %v, want a panic", s.Run())
	}()
	p, ok := r.(*TaskPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *TaskPanic", r, r)
	}
	return p
}

func TestTaskPanicNamesItsThread(t *testing.T) {
	boom := errors.New("bad packet")
	s := New()
	s.Go("n3/ch_mad.poll.sci", func() {
		s.Sleep(1234500 * Nanosecond)
		panic(boom)
	})
	s.Go("bystander", func() { s.Sleep(Second) })
	p := runPanic(t, s)
	if p.Task != "n3/ch_mad.poll.sci" || p.Now != Time(1234500) || p.Value != any(boom) {
		t.Fatalf("TaskPanic = {%q %v %v}", p.Task, p.Now, p.Value)
	}
	if !errors.Is(p, boom) {
		t.Fatal("errors.Is does not reach the original value")
	}
	if !strings.HasPrefix(p.Error(), "vtime: task n3/ch_mad.poll.sci at 1234.500us: bad packet\n") {
		t.Fatalf("rendered as %q", p.Error())
	}
	if !strings.Contains(p.Error(), "TestTaskPanicNamesItsThread") {
		t.Fatalf("the panicking stack is missing:\n%s", p.Error())
	}
}

func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	for _, ctx := range []string{"fired by a parking task", "fired by Run"} {
		t.Run(ctx, func(t *testing.T) {
			s := New()
			s.After(5*Microsecond, func() { panic("bad delivery") })
			ev := NewEvent(s, "never")
			s.Go("waiter", func() { ev.Wait() })
			if ctx == "fired by Run" {
				// The last task to hold the CPU ends, so it is Run's
				// own pick that reaches the timer.
				s.Go("short", func() {})
			}
			p := runPanic(t, s)
			if p.Task != "" || p.Now != Time(5*Microsecond) || p.Value != any("bad delivery") {
				t.Fatalf("TaskPanic = {%q %v %v}", p.Task, p.Now, p.Value)
			}
			if !strings.HasPrefix(p.Error(), "vtime: callback at 5.000us: bad delivery\n") {
				t.Fatalf("rendered as %q", p.Error())
			}
		})
	}
}

// The deadline is the livelock watchdog, so its error carries the dump
// that shows who sleeps until when.
func TestDeadlineErrorCarriesTaskDump(t *testing.T) {
	s := New()
	s.SetDeadline(Time(100 * Microsecond))
	s.OnDeadlock = func() []string { return []string{"99.000us s1/t0 pkt eager.send"} }
	q := NewQueue[int](s, "nic.rx")
	s.GoDaemon("poller", func() { q.Pop() })
	s.Go("main", func() { s.Sleep(Second) })

	err := s.Run()
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %T: %v", err, err)
	}
	if de.Deadline != Time(100*Microsecond) || de.Next != Time(Second) {
		t.Fatalf("Deadline %v Next %v", de.Deadline, de.Next)
	}
	lines := strings.Split(err.Error(), "\n")
	if lines[0] != "vtime: virtual deadline 100.000us exceeded (next event at 1000000.000us)" {
		t.Fatalf("first line changed: %q", lines[0])
	}
	want := map[string]string{"poller": "queue nic.rx", "main": "sleep until 1000000.000us"}
	for _, ts := range de.Tasks {
		if ts.State != "blocked" || ts.BlockedOn != want[ts.Name] {
			t.Errorf("task %q: %s on %q, want blocked on %q", ts.Name, ts.State, ts.BlockedOn, want[ts.Name])
		}
		delete(want, ts.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing from the dump: %v", want)
	}
	if len(de.FlightTail) != 1 || !strings.Contains(err.Error(), "eager.send") {
		t.Errorf("flight tail missing: %v", de.FlightTail)
	}
}

// A long-lived event that is subscribed to and cancelled over and over
// (a waiter polling the same pending request) keeps no dead slots.
func TestOnFireCancelDoesNotGrow(t *testing.T) {
	s := New()
	ev := NewEvent(s, "pending")
	keep := ev.OnFire(func() {})
	for i := 0; i < 10000; i++ {
		cancel := ev.OnFire(func() {})
		cancel()
		cancel() // a second call must not touch a reused slot
	}
	if len(ev.subs) != 1 {
		t.Fatalf("len(subs) = %d after 10000 OnFire+cancel cycles, want 1", len(ev.subs))
	}
	keep()
	if len(ev.subs) != 0 {
		t.Fatalf("len(subs) = %d after the last cancel, want 0", len(ev.subs))
	}
	// Out-of-order cancels: the middle slot empties, the tail trims later.
	fired := 0
	a := ev.OnFire(func() { fired += 1 })
	b := ev.OnFire(func() { fired += 10 })
	c := ev.OnFire(func() { fired += 100 })
	b()
	c()
	if len(ev.subs) != 1 {
		t.Fatalf("len(subs) = %d, want 1", len(ev.subs))
	}
	d := ev.OnFire(func() { fired += 1000 }) // takes b's old slot
	b()                                      // stale: must not cancel d
	ev.Fire()
	if fired != 1001 {
		t.Fatalf("fired = %d, want 1001", fired)
	}
	a()
	d()
}
