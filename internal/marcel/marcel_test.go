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
		p.Charge(us) // behind the compute thread now: 5 us from its end, it is not cut
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

// A thread that holds the CPU across several intervals delays the poll it
// overlaps, and the poller's phase follows the delayed burn: the next
// interval starts when that burn ends, not on the old lattice. Sampled
// against the reference loop and against the instants worked out by hand.
// The holder is a Charge: the reference loop's burn is one too, and would
// cut a Compute where WaitPoll's does not.
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
			p.Charge(35 * us) // 5..40, across the timeouts at 10, 20 and 30 of an undisturbed poller
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

// step is one call of a scripted thread: sleep, Compute or Charge for d,
// n times over (at least once). A thread logs its Compute and Charge steps
// when they return.
type step struct {
	kind byte // 's' sleep, 'c' Compute, 'g' Charge
	d    vtime.Duration
	n    int
}

// runScripts runs one process whose threads follow the scripts, in spawn
// order, beside an optional daemon poller that never gets an item. It
// returns the log and, without a poller, checks that CPUBusy is the sum of
// the steps' CPU time however they were cut.
func runScripts(t *testing.T, poll *PollSpec, threads map[string][]step, order []string) []string {
	t.Helper()
	s := vtime.New()
	p := NewProc(s, "n0")
	var log []string
	var sum vtime.Duration
	for _, name := range order {
		for _, st := range threads[name] {
			if st.kind != 's' {
				sum += st.d * vtime.Duration(max(st.n, 1))
			}
		}
		p.Spawn(name, func() {
			for _, st := range threads[name] {
				for range max(st.n, 1) {
					switch st.kind {
					case 's':
						p.Sleep(st.d)
					case 'c':
						p.Compute(st.d)
					case 'g':
						p.Charge(st.d)
					}
				}
				if st.kind != 's' {
					log = append(log, fmt.Sprintf("%v %s %c busy=%v", s.Now(), name, st.kind, p.CPUBusy))
				}
			}
		})
	}
	if poll != nil {
		q := vtime.NewQueue[int](s, "rx")
		p.SpawnDaemon("poller", func() { WaitPoll(p, q, *poll) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if poll == nil && p.CPUBusy != sum {
		t.Errorf("CPUBusy = %v, want the %v the steps charged", p.CPUBusy, sum)
	}
	return log
}

// The preemption rules, one scenario each: a Charge queued behind a Compute
// starts within a Quantum, or when the Compute ends if that is sooner; an
// idle burn and a Compute never preempt; computes and charges each stay
// FIFO; a charge is never cut; CPUBusy is the sum of what was charged; a
// stream of charges does not starve a Compute.
func TestPreemptionRules(t *testing.T) {
	const us = vtime.Microsecond
	for _, tc := range []struct {
		name    string
		poll    *PollSpec
		threads map[string][]step
		order   []string
		want    []string
	}{
		{"charge at the start of the turn: cut a quantum later", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "stack": {{'g', us, 0}}}, []string{"app", "stack"},
			[]string{"21.000us stack g busy=101.000us", "101.000us app c busy=101.000us"}},
		{"charge mid-way: cut a quantum after it queues", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "stack": {{'s', 5 * us, 0}, {'g', us, 0}}}, []string{"app", "stack"},
			[]string{"26.000us stack g busy=101.000us", "101.000us app c busy=101.000us"}},
		{"charge within a quantum of the end: the compute ends first", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "stack": {{'s', 85 * us, 0}, {'g', us, 0}}}, []string{"app", "stack"},
			[]string{"100.000us app c busy=100.000us", "101.000us stack g busy=101.000us"}},
		{"an idle burn waits for the compute's end", &PollSpec{IdleCost: 2 * us, Interval: 10 * us},
			map[string][]step{"app": {{'c', 100 * us, 0}, {'g', us, 0}}}, []string{"app"},
			[]string{"100.000us app c busy=100.000us", "103.000us app g busy=103.000us"}},
		{"computes stay FIFO", nil,
			map[string][]step{"a": {{'c', 10 * us, 0}}, "b": {{'c', 10 * us, 0}}}, []string{"a", "b"},
			[]string{"10.000us a c busy=10.000us", "20.000us b c busy=20.000us"}},
		{"charges stay FIFO behind a compute", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "s1": {{'s', 5 * us, 0}, {'g', 3 * us, 0}}, "s2": {{'s', 6 * us, 0}, {'g', 2 * us, 0}}},
			[]string{"app", "s1", "s2"},
			[]string{"28.000us s1 g busy=103.000us", "30.000us s2 g busy=105.000us", "105.000us app c busy=105.000us"}},
		{"a charge is never cut", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "s1": {{'s', 5 * us, 0}, {'g', 50 * us, 0}}, "s2": {{'s', 30 * us, 0}, {'g', 5 * us, 0}}},
			[]string{"app", "s1", "s2"},
			[]string{"75.000us s1 g busy=150.000us", "80.000us s2 g busy=155.000us", "155.000us app c busy=155.000us"}},
		{"a stream of charges does not starve a compute", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "stream": {{'g', 5 * us, 100}}}, []string{"app", "stream"},
			[]string{"180.000us app c busy=180.000us", "600.000us stream g busy=600.000us"}},
		{"nor do two streams", nil,
			map[string][]step{"app": {{'c', 100 * us, 0}}, "s1": {{'g', 5 * us, 50}}, "s2": {{'g', 5 * us, 50}}}, []string{"app", "s1", "s2"},
			[]string{"200.000us app c busy=200.000us", "595.000us s1 g busy=595.000us", "600.000us s2 g busy=600.000us"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runScripts(t, tc.poll, tc.threads, tc.order)
			if !slices.Equal(got, tc.want) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}

// TestUnpreemptedComputeIsCharge: where no Charge meets it, a Compute runs
// the same events as a Charge of the same length — today's Acquire, Sleep,
// Release. Seeded programs of compute threads, sleeps and idle pollers (whose
// burns never preempt), on one to three processes, run once with Compute and
// once with Charge; the logs must agree event for event.
func TestUnpreemptedComputeIsCharge(t *testing.T) {
	grid := []vtime.Duration{vtime.Nanosecond, 300 * vtime.Nanosecond, 8 * vtime.Microsecond, 20 * vtime.Microsecond, 25 * vtime.Microsecond, 33 * vtime.Microsecond, 70 * vtime.Microsecond}
	run := func(k int, grain grainFn) []string {
		r := pollRand(k*7919 + 3)
		s := vtime.New()
		var log []string
		for i := range 1 + r.n(3) {
			p := NewProc(s, fmt.Sprintf("p%d", i))
			if r.n(2) == 0 {
				spec := PollSpec{IdleCost: grid[r.n(4)], Interval: grid[2+r.n(5)]}
				q := vtime.NewQueue[int](s, p.Name+".rx")
				p.SpawnDaemon("poll", func() {
					for {
						log = append(log, fmt.Sprintf("%d %s got %d busy=%d", s.Now(), p.Name, WaitPoll(p, q, spec), p.CPUBusy))
					}
				})
				for n := range r.n(4) {
					s.At(vtime.Time(grid[r.n(len(grid))]*vtime.Duration(1+r.n(8))), func() { q.Push(n) })
				}
			}
			for j := range 1 + r.n(3) {
				seed := pollRand(r.n(1 << 30))
				p.Spawn(fmt.Sprintf("t%d", j), func() {
					for range 1 + seed.n(6) {
						d := grid[seed.n(len(grid))]
						if seed.n(3) == 0 {
							p.Sleep(d)
							continue
						}
						grain(p, d)
						log = append(log, fmt.Sprintf("%d %s/t%d %d busy=%d cpuq=%d", s.Now(), p.Name, j, d, p.CPUBusy, p.cpu.Waiting()))
					}
				})
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return append(log, fmt.Sprintf("end %d", s.Now()))
	}
	for k := range 200 {
		got, want := run(k, (*Proc).Compute), run(k, (*Proc).Charge)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("program %d, event %d:\n Compute %s\n Charge  %s", k, i, got[i], want[i])
				}
			}
			t.Fatalf("program %d: %d events with Compute, %d with Charge", k, len(got), len(want))
		}
	}
}

// BenchmarkIdlePoll is the host cost of one idle poll cycle (timeout, burn,
// next interval) at the calibrated TCP discipline: 64 processes, each with
// a poller idling beside a rank thread. The first rank thread ticks, waking
// more often than once a period, so that no stretch is quiet long enough to
// be crossed in one step: every cycle is stepped.
func BenchmarkIdlePoll(b *testing.B) {
	benchIdlePoll(b, 30*vtime.Microsecond)
}

// BenchmarkIdlePollQuiet is the host cost per idle poll cycle when the
// stretches between the ticks are a thousand periods long: the kernel crosses
// each in one step (vtime's fastForward) and steps only the cycles around
// the tick.
func BenchmarkIdlePollQuiet(b *testing.B) {
	benchIdlePoll(b, 1000*33*vtime.Microsecond)
}

func benchIdlePoll(b *testing.B, tick vtime.Duration) {
	const procs = 64
	s := vtime.New()
	tcp := PollSpec{IdleCost: 8 * vtime.Microsecond, Interval: 25 * vtime.Microsecond}
	end := vtime.Time(vtime.Duration(b.N/procs+1) * (tcp.Interval + tcp.IdleCost))
	done := vtime.NewEvent(s, "done")
	for i := 0; i < procs; i++ {
		p := NewProc(s, fmt.Sprintf("n%d", i))
		q := vtime.NewQueue[int](s, "tcp.rx")
		p.SpawnDaemon("poller", func() { WaitPoll(p, q, tcp) })
		if i > 0 {
			p.Spawn("rank", done.Wait)
			continue
		}
		p.Spawn("rank", func() {
			for now := s.Now(); now < end; now = s.Now() {
				p.Sleep(min(tick, end.Sub(now)))
			}
			done.Fire()
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputePreempted is the host cost of one preemption: a Compute
// long enough to be cut b.N times, beside a stack thread that wakes every
// two quanta and charges 1 µs behind it (a kick, a cut, the charge and the
// idle check that hands the CPU back).
func BenchmarkComputePreempted(b *testing.B) {
	s := vtime.New()
	p := NewProc(s, "n0")
	const gap = 2 * Quantum
	p.Spawn("app", func() { p.Compute(vtime.Duration(b.N+1) * 2 * gap) })
	p.Spawn("stack", func() {
		for range b.N {
			p.Sleep(gap)
			p.Charge(vtime.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
