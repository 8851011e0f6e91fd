package marcel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mpichmad/internal/vtime"
)

func TestComputeSerializesWithinProcess(t *testing.T) {
	s := vtime.New()
	p := NewProc(s, "n0")
	var done []vtime.Time
	for i := 0; i < 3; i++ {
		p.Spawn("w", func() {
			p.Compute(10 * vtime.Microsecond)
			done = append(done, s.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []vtime.Time{
		vtime.Time(10 * vtime.Microsecond),
		vtime.Time(20 * vtime.Microsecond),
		vtime.Time(30 * vtime.Microsecond),
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if p.CPUBusy != 30*vtime.Microsecond {
		t.Fatalf("CPUBusy = %v, want 30us", p.CPUBusy)
	}
}

func TestProcessesRunConcurrently(t *testing.T) {
	s := vtime.New()
	a := NewProc(s, "a")
	b := NewProc(s, "b")
	var ta, tb vtime.Time
	a.Spawn("w", func() { a.Compute(10 * vtime.Microsecond); ta = s.Now() })
	b.Spawn("w", func() { b.Compute(10 * vtime.Microsecond); tb = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ta != vtime.Time(10*vtime.Microsecond) || tb != vtime.Time(10*vtime.Microsecond) {
		t.Fatalf("processes serialized across each other: ta=%v tb=%v", ta, tb)
	}
}

func TestWaitPollWakeOnArrival(t *testing.T) {
	s := vtime.New()
	p := NewProc(s, "n0")
	q := vtime.NewQueue[int](s, "rx")
	spec := PollSpec{Interval: 0}
	var got int
	var at vtime.Time
	p.Spawn("poller", func() {
		got = WaitPoll(p, q, spec)
		at = s.Now()
	})
	p.Spawn("src", func() {
		p.Sleep(5 * vtime.Microsecond)
		q.Push(99)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
	if at != vtime.Time(5*vtime.Microsecond) {
		t.Fatalf("completed at %v, want 5us (the arrival)", at)
	}
}

func TestWaitPollIdleBurn(t *testing.T) {
	// An idle periodic poller must burn Cost of CPU every Interval,
	// delaying other threads of the same process (the Fig. 9 mechanism).
	s := vtime.New()
	p := NewProc(s, "n0")
	q := vtime.NewQueue[int](s, "tcp-rx")
	spec := PollSpec{IdleCost: 10 * vtime.Microsecond, Interval: 10 * vtime.Microsecond}
	p.SpawnDaemon("tcp-poller", func() { WaitPoll(p, q, spec) })
	var workDone vtime.Time
	p.Spawn("main", func() {
		// 10 compute slices of 10us each = 100us of work. With the
		// poller burning 50% duty, completion must be well past 100us.
		for i := 0; i < 10; i++ {
			p.Compute(10 * vtime.Microsecond)
		}
		workDone = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if workDone <= vtime.Time(100*vtime.Microsecond) {
		t.Fatalf("work finished at %v; expected inflation from polling interference", workDone)
	}
	if workDone > vtime.Time(250*vtime.Microsecond) {
		t.Fatalf("work finished at %v; interference unreasonably large", workDone)
	}
}

func TestWaitPollItemAlreadyThere(t *testing.T) {
	s := vtime.New()
	p := NewProc(s, "n0")
	q := vtime.NewQueue[int](s, "rx")
	q.Push(7)
	var got int
	p.Spawn("main", func() {
		got = WaitPoll(p, q, PollSpec{IdleCost: vtime.Microsecond, Interval: 100 * vtime.Microsecond})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d", got)
	}
	if s.Now() != 0 {
		t.Fatalf("took %v, want 0 (no idle wait)", s.Now())
	}
}

func TestComputeZeroIsNoop(t *testing.T) {
	s := vtime.New()
	p := NewProc(s, "n0")
	p.Spawn("main", func() {
		p.Compute(0)
		p.Compute(-5)
		if s.Now() != 0 {
			t.Error("zero/negative compute advanced time")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// An item that arrives while the poller burns its idle cost is found when
// the burn ends, not before — and the poller takes it ahead of a compute
// thread that queued for the CPU meanwhile, because it is still running
// when it releases the CPU to that thread.
func TestWaitPollItemDuringBurn(t *testing.T) {
	const us = vtime.Microsecond
	s := vtime.New()
	p := NewProc(s, "n0")
	q := vtime.NewQueue[int](s, "rx")
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%v %s", s.Now(), what)) }
	p.Spawn("poller", func() {
		WaitPoll(p, q, PollSpec{IdleCost: 10 * us, Interval: 10 * us}) // burns 10..20
		note("got")
		p.Compute(us) // behind the compute thread now
		note("handled")
	})
	p.Spawn("compute", func() {
		p.Sleep(12 * us)
		p.Compute(5 * us) // queues behind the burn: 20..25
		note("computed")
	})
	s.After(15*us, func() { q.Push(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"20.000us got", "25.000us computed", "26.000us handled"}
	if !slices.Equal(log, want) {
		t.Fatalf("got %v, want %v", log, want)
	}
}

// A compute thread that holds the CPU across several intervals delays the
// poll it overlaps, and the poller's phase follows the delayed burn: the
// next interval starts when that burn ends, not on the old lattice. Sampled
// against the reference loop and against the instants worked out by hand.
func TestWaitPollPhaseShiftsBehindCompute(t *testing.T) {
	const us = vtime.Microsecond
	run := func(wait pollWaitFn) (samples []vtime.Duration, got vtime.Time) {
		s := vtime.New()
		p := NewProc(s, "n0")
		q := vtime.NewQueue[int](s, "rx")
		p.Spawn("poller", func() {
			wait(p, q, PollSpec{IdleCost: 2 * us, Interval: 10 * us})
			got = s.Now()
		})
		p.Spawn("compute", func() {
			p.Sleep(5 * us)
			p.Compute(35 * us) // 5..40, across the timeouts at 10, 20 and 30 of an undisturbed poller
		})
		for _, at := range []vtime.Duration{39, 41, 43, 51, 53, 55, 65} {
			s.After(at*us, func() { samples = append(samples, p.CPUBusy) })
		}
		s.After(70*us, func() { q.Push(1) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return samples, got
	}
	samples, got := run(WaitPoll[int])
	refSamples, refGot := run(waitPollLoop[int])
	if !slices.Equal(samples, refSamples) || got != refGot {
		t.Fatalf("CPUBusy %v, item at %v; the reference loop has %v, %v", samples, got, refSamples, refGot)
	}
	// One poll waits from 10 to 40, burns 40..42; the next burns are
	// 52..54 and 64..66; the item of 70 is seen at once.
	want := []vtime.Duration{35 * us, 37 * us, 37 * us, 37 * us, 39 * us, 39 * us, 41 * us}
	if !slices.Equal(samples, want) || got != vtime.Time(70*us) {
		t.Fatalf("CPUBusy %v, item at %v; want %v, 70us", samples, got, want)
	}
}

// Deadlock and deadline dumps name what a poller is waiting for in each
// phase of its cycle, in the words the reference loop's primitives use.
func TestWaitPollPhasesInDumps(t *testing.T) {
	const us = vtime.Microsecond
	run := func(wait pollWaitFn, deadline vtime.Duration) error {
		s := vtime.New()
		p := NewProc(s, "n0")
		tcp := PollSpec{IdleCost: 8 * us, Interval: 25 * us}
		if deadline == 0 {
			tcp.Interval = 0 // a deadlock needs every timer to stop
		} else {
			s.SetDeadline(vtime.Time(deadline))
		}
		for _, name := range []string{"a", "b", "c"} {
			q := vtime.NewQueue[int](s, name+".rx")
			p.Spawn("poll-"+name, func() { wait(p, q, tcp) })
		}
		return s.Run()
	}
	// At 30 us: a burns 25..33, b is next in line for the CPU, c third.
	// At 45 us: a waits out its next interval, c burns 41..49.
	for _, deadline := range []vtime.Duration{0, 30 * us, 45 * us} {
		err, ref := run(WaitPoll[int], deadline), run(waitPollLoop[int], deadline)
		if err == nil || ref == nil || err.Error() != ref.Error() {
			t.Fatalf("deadline %v:\n got  %v\n want %v", deadline, err, ref)
		}
		var want []string
		switch deadline {
		case 0:
			want = []string{`"n0/poll-a": blocked on queue a.rx`, "deadlock at 0.000us"}
		case 30 * us:
			want = []string{`"n0/poll-a": blocked on sleep until 33.000us`, `"n0/poll-b": blocked on sem n0.cpu`, `"n0/poll-c": blocked on sem n0.cpu`}
		case 45 * us:
			want = []string{`"n0/poll-a": blocked on queue a.rx`, `"n0/poll-b": blocked on queue b.rx`, `"n0/poll-c": blocked on sleep until 49.000us`}
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("deadline %v: dump lacks %q:\n%v", deadline, w, err)
			}
		}
	}
}

// BenchmarkIdlePoll is the host cost of one idle poll cycle (timeout, burn,
// next interval) at the calibrated TCP discipline: 64 processes, each with
// a poller idling beside a rank thread that stays blocked.
func BenchmarkIdlePoll(b *testing.B) {
	const procs = 64
	s := vtime.New()
	tcp := PollSpec{IdleCost: 8 * vtime.Microsecond, Interval: 25 * vtime.Microsecond}
	done := vtime.NewEvent(s, "done")
	for i := 0; i < procs; i++ {
		p := NewProc(s, fmt.Sprintf("n%d", i))
		q := vtime.NewQueue[int](s, "tcp.rx")
		p.SpawnDaemon("poller", func() { WaitPoll(p, q, tcp) })
		p.Spawn("rank", done.Wait)
	}
	s.After(vtime.Duration(b.N/procs+1)*(tcp.Interval+tcp.IdleCost), done.Fire)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
