package vtime

import (
	"slices"
	"strings"
	"testing"
)

// A task whose predecessor on the CPU has ended runs on that task's
// coroutine: the scheduler makes a coroutine only when none is idle, so the
// number it makes is the peak of tasks alive at once, not the number spawned.

// Ten thousand short tasks, each over before the next starts, run on one
// coroutine; spawned and joined one by one from a main task, on two.
func TestCoroutineReuseSequentialTasks(t *testing.T) {
	s := New()
	ran := 0
	for i := 0; i < 10000; i++ {
		s.Go("short", func() { ran++ })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tasks, coros := s.Counts(); ran != 10000 || tasks != 10000 || coros != 1 {
		t.Fatalf("%d of %d tasks ran on %d coroutines, want 10000 on 1", ran, tasks, coros)
	}

	s = New()
	s.Go("main", func() {
		for i := 0; i < 10000; i++ {
			ev := NewEvent(s, "done")
			s.Go("child", func() { ev.Fire() })
			ev.Wait()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tasks, coros := s.Counts(); tasks != 10001 || coros != 2 {
		t.Fatalf("%d tasks on %d coroutines, want 10001 on 2", tasks, coros)
	}
}

// panicsOnReusedCoroutine is the body of the task that panics, named so
// that its frame can be looked for in the stack the panic carries.
func panicsOnReusedCoroutine() { panic("second task") }

// A task on a reused coroutine starts clean: nothing of the task before it
// (a timed-out wait, a poll state, a wait reason) shows, and its panic
// names it and carries its own stack, not its predecessor's.
func TestCoroutineReuseStartsClean(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	cpu := NewSem(s, "cpu", 1)
	var busy Duration
	var first *coro
	s.Go("first", func() {
		q.PopTimeout(Microsecond) // times out
		s.GoDaemon("pusher", func() {
			s.Sleep(10 * Microsecond)
			q.Push(1)
		})
		q.PopPoll(Microsecond, cpu, 100*Nanosecond, &busy) // leaves a poll state behind
		first = s.running.co
	})
	s.Go("second", func() {
		s.Sleep(20 * Microsecond) // the first has ended, its coroutine is idle
		s.Go("third", func() {
			me := s.running
			if me.co != first {
				t.Error("the third task did not run on the first one's coroutine")
			}
			if me.timedOut || me.why != (waitReason{}) || me.poll != nil || me.waitList != nil {
				t.Errorf("the third task starts with timedOut %v, why %q, poll %v", me.timedOut, me.why, me.poll)
			}
			panicsOnReusedCoroutine()
		})
		s.Sleep(Second)
	})
	p := runPanic(t, s)
	if p.Task != "third" || p.Value != any("second task") {
		t.Fatalf("TaskPanic = {%q %v}", p.Task, p.Value)
	}
	if msg := p.Error(); !strings.Contains(msg, "panicsOnReusedCoroutine") || strings.Contains(msg, "TestCoroutineReuseStartsClean.func1") {
		t.Fatalf("the panic does not carry the third task's own stack:\n%s", msg)
	}
}

// A coroutine whose task panicked or was torn down never goes back on the
// idle list: at Run's teardown, while the unfinished tasks unwind and before
// the idle coroutines are stopped, neither is there, beside a coroutine
// whose task ended normally. Afterwards every coroutine has ended.
func TestCoroutineReuseNeverAfterPanicOrTeardown(t *testing.T) {
	s := New()
	var parked, panicked, ended *Task
	var idle []*coro
	parked = s.GoDaemon("parked", func() {
		defer func() { idle = slices.Clone(s.idle) }() // runs at teardown
		NewEvent(s, "never").Wait()
	})
	panicked = s.Go("panics", func() {
		ended = s.Go("ended", func() {}) // on a coroutine of its own: none is idle yet
		s.Sleep(Microsecond)
		panic("boom")
	})
	runPanic(t, s)
	if !slices.Contains(idle, ended.co) {
		t.Error("the coroutine of a task that ended is not idle")
	}
	if slices.Contains(idle, panicked.co) || slices.Contains(idle, parked.co) {
		t.Error("the coroutine of a panicked or torn-down task is on the idle list")
	}
	for _, task := range []*Task{parked, panicked, ended} {
		if _, more := task.co.next(); more {
			t.Errorf("the coroutine of task %q is still alive after Run", task.name)
		}
	}
}

// Spawning a task and joining it allocates the Task, its function's closure
// and the event and its waiter list: the coroutine and its goroutine are
// reused (17 allocations when every task made its iter.Pull coroutine).
func TestAllocBudgetSpawnJoin(t *testing.T) {
	s := New()
	n := allocsInTask(t, s, func() {
		ev := NewEvent(s, "done")
		s.Go("child", func() { ev.Fire() })
		ev.Wait()
	})
	if n > 4 {
		t.Fatalf("spawn and join: %v allocs/op, budget 4", n)
	}
	if _, coros := s.Counts(); coros != 2 {
		t.Fatalf("%d coroutines for a task that spawns and joins one child at a time, want 2", coros)
	}
}
