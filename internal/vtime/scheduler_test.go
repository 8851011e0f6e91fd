package vtime

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end Time
	s.Go("sleeper", func() {
		s.Sleep(5 * Microsecond)
		end = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(5*Microsecond) {
		t.Fatalf("end = %v, want 5us", end)
	}
}

func TestSequentialSleeps(t *testing.T) {
	s := New()
	var marks []Time
	s.Go("a", func() {
		for i := 0; i < 3; i++ {
			s.Sleep(10 * Microsecond)
			marks = append(marks, s.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("mark[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestConcurrentTasksInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		s.Go("a", func() {
			order = append(order, "a0")
			s.Sleep(2 * Microsecond)
			order = append(order, "a1")
		})
		s.Go("b", func() {
			order = append(order, "b0")
			s.Sleep(1 * Microsecond)
			order = append(order, "b1")
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	want := "a0 b0 b1 a1"
	if got := strings.Join(first, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	for i := 0; i < 20; i++ {
		if got := strings.Join(run(), " "); got != strings.Join(first, " ") {
			t.Fatalf("nondeterministic order on run %d: %q vs %q", i, got, first)
		}
	}
}

func TestYieldRoundRobin(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Go("t", func() {
			for k := 0; k < 2; k++ {
				order = append(order, i)
				s.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	ev := NewEvent(s, "never")
	s.Go("waiter", func() { ev.Wait() })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "waiter") {
		t.Fatalf("deadlock report should name the blocked task: %v", err)
	}
}

func TestDaemonDoesNotBlockExit(t *testing.T) {
	s := New()
	s.GoDaemon("poller", func() {
		for {
			s.Sleep(1 * Microsecond)
		}
	})
	done := false
	s.Go("main", func() {
		s.Sleep(10 * Microsecond)
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("main task did not complete")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s := New()
	s.SetDeadline(Time(100 * Microsecond))
	s.Go("main", func() { s.Sleep(Second) })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestAtCallbackOrder(t *testing.T) {
	s := New()
	var order []int
	s.Go("main", func() {
		s.At(Time(5*Microsecond), func() { order = append(order, 5) })
		s.At(Time(3*Microsecond), func() { order = append(order, 3) })
		s.At(Time(3*Microsecond), func() { order = append(order, 31) }) // same time: FIFO by arming order
		s.Sleep(10 * Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 31, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSemMutualExclusionAndFIFO(t *testing.T) {
	s := New()
	sem := NewSem(s, "cpu", 1)
	var order []int
	var inside int
	for i := 0; i < 4; i++ {
		i := i
		s.Go("worker", func() {
			sem.Acquire()
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, i)
			s.Sleep(10 * Microsecond)
			inside--
			sem.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
	if got := s.Now(); got != Time(40*Microsecond) {
		t.Fatalf("serialized time = %v, want 40us", got)
	}
}

func TestSemCountingPermits(t *testing.T) {
	s := New()
	sem := NewSem(s, "pool", 2)
	var concurrent, maxConcurrent int
	for i := 0; i < 6; i++ {
		s.Go("w", func() {
			sem.Acquire()
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			s.Sleep(10 * Microsecond)
			concurrent--
			sem.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxConcurrent != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxConcurrent)
	}
	if got := s.Now(); got != Time(30*Microsecond) {
		t.Fatalf("total = %v, want 30us (6 x 10us on 2 permits)", got)
	}
}

func TestTryAcquireRespectsQueue(t *testing.T) {
	s := New()
	sem := NewSem(s, "m", 1)
	s.Go("main", func() {
		if !sem.TryAcquire() {
			t.Error("first TryAcquire should succeed")
		}
		if sem.TryAcquire() {
			t.Error("second TryAcquire should fail")
		}
		sem.Release()
		if !sem.TryAcquire() {
			t.Error("TryAcquire after release should succeed")
		}
		sem.Release()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventBroadcast(t *testing.T) {
	s := New()
	ev := NewEvent(s, "go")
	woke := 0
	for i := 0; i < 3; i++ {
		s.Go("w", func() {
			ev.Wait()
			woke++
		})
	}
	s.Go("firer", func() {
		s.Sleep(5 * Microsecond)
		ev.Fire()
		ev.Fire() // double fire is a no-op
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
	if !ev.Fired() {
		t.Fatal("event should report fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	s := New()
	ev := NewEvent(s, "done")
	s.Go("main", func() {
		ev.Fire()
		ev.Wait() // must not block
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	var got []int
	s.Go("consumer", func() {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop())
		}
	})
	s.Go("producer", func() {
		for i := 0; i < 5; i++ {
			s.Sleep(1 * Microsecond)
			q.Push(i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got = %v, want in-order 0..4", got)
		}
	}
}

func TestQueuePopTimeoutExpires(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q")
	s.Go("main", func() {
		start := s.Now()
		_, ok := q.PopTimeout(7 * Microsecond)
		if ok {
			t.Error("PopTimeout should have timed out")
		}
		if el := s.Now().Sub(start); el != 7*Microsecond {
			t.Errorf("waited %v, want 7us", el)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePopTimeoutGetsItem(t *testing.T) {
	s := New()
	q := NewQueue[string](s, "q")
	s.Go("consumer", func() {
		v, ok := q.PopTimeout(100 * Microsecond)
		if !ok || v != "hello" {
			t.Errorf("got (%q,%v), want (hello,true)", v, ok)
		}
		if s.Now() != Time(3*Microsecond) {
			t.Errorf("woke at %v, want 3us", s.Now())
		}
	})
	s.Go("producer", func() {
		s.Sleep(3 * Microsecond)
		q.Push("hello")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueTimeoutThenNormalPop(t *testing.T) {
	// A consumer that timed out must not linger on the wait list and
	// steal later wakeups.
	s := New()
	q := NewQueue[int](s, "q")
	var got int
	s.Go("c1", func() {
		if _, ok := q.PopTimeout(1 * Microsecond); ok {
			t.Error("c1 should time out")
		}
	})
	s.Go("c2", func() {
		got = q.Pop()
	})
	s.Go("p", func() {
		s.Sleep(5 * Microsecond)
		q.Push(42)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("c2 got %d, want 42", got)
	}
}

func TestSpawnFromTask(t *testing.T) {
	s := New()
	sum := 0
	s.Go("parent", func() {
		for i := 1; i <= 3; i++ {
			i := i
			s.Go("child", func() {
				s.Sleep(Duration(i) * Microsecond)
				sum += i
			})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
}

// TestMutex: a one-permit Sem excludes: ten read-sleep-write sections held
// across a virtual sleep lose no update.
func TestMutex(t *testing.T) {
	s := New()
	mu := NewSem(s, "m", 1)
	n := 0
	for i := 0; i < 10; i++ {
		s.Go("w", func() {
			mu.Acquire()
			v := n
			s.Sleep(1 * Microsecond) // would expose races without the lock
			n = v + 1
			mu.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
}

// Property: any multiset of producer items is consumed exactly, in FIFO
// order per producer, and the clock never runs backwards.
func TestQueueProperty(t *testing.T) {
	f := func(items []uint8, delays []uint8) bool {
		if len(items) > 64 {
			items = items[:64]
		}
		s := New()
		q := NewQueue[int](s, "q")
		var got []int
		s.Go("consumer", func() {
			last := Time(-1)
			for range items {
				got = append(got, q.Pop())
				if s.Now() < last {
					t.Error("clock ran backwards")
				}
				last = s.Now()
			}
		})
		s.Go("producer", func() {
			for i, v := range items {
				d := Duration(1)
				if len(delays) > 0 {
					d = Duration(delays[i%len(delays)]) * Microsecond
				}
				s.Sleep(d)
				q.Push(int(v))
			}
		})
		if err := s.Run(); err != nil {
			t.Error(err)
			return false
		}
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i] != int(items[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a semaphore with k permits never admits more than k holders
// and total serialization time is ceil(n/k)*hold for identical tasks.
func TestSemProperty(t *testing.T) {
	f := func(nTasks, permits uint8) bool {
		n := int(nTasks%12) + 1
		k := int(permits%4) + 1
		s := New()
		sem := NewSem(s, "r", k)
		inside, maxIn := 0, 0
		for i := 0; i < n; i++ {
			s.Go("w", func() {
				sem.Acquire()
				inside++
				if inside > maxIn {
					maxIn = inside
				}
				s.Sleep(10 * Microsecond)
				inside--
				sem.Release()
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if maxIn > k {
			return false
		}
		rounds := (n + k - 1) / k
		return s.Now() == Time(Duration(rounds)*10*Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	s := New()
	s.Go("main", func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestDurationHelpers(t *testing.T) {
	if Microseconds(2.5) != 2500*Nanosecond {
		t.Fatal("Microseconds conversion wrong")
	}
	if d := (1500 * Nanosecond); d.Micros() != 1.5 {
		t.Fatalf("Micros = %v", d.Micros())
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
	tm := Time(0).Add(3 * Microsecond)
	if tm.Sub(Time(Microsecond)) != 2*Microsecond {
		t.Fatal("Sub wrong")
	}
	if tm.String() == "" || (3*Microsecond).String() == "" {
		t.Fatal("String empty")
	}
}
