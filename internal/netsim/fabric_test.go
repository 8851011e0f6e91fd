package netsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpichmad/internal/vtime"
)

// testNet builds a two-node network with simple round numbers:
// 10us wire latency, 100 MB/s (decimal 1e8) bandwidth.
func testNet(s *vtime.Scheduler) (*Network, *Endpoint, *Endpoint) {
	p := Params{
		Protocol:    "test",
		WireLatency: 10 * vtime.Microsecond,
		Bandwidth:   1e8,
	}
	n := NewNetwork(s, "testnet", p)
	a := n.Attach("a")
	b := n.Attach("b")
	return n, a, b
}

func TestDeliveryTiming(t *testing.T) {
	s := vtime.New()
	_, a, b := testNet(s)
	var arrived vtime.Time
	var got *Packet
	rx := vtime.NewQueue[*Packet](s, "rx")
	b.OnDeliver = func(p *Packet) { arrived = s.Now(); rx.Push(p) }
	s.Go("sender", func() {
		pkt := &Packet{Dst: "b", Header: make([]byte, 1000)} // 10us tx at 1e8 B/s
		if err := a.Send(pkt); err != nil {
			t.Error(err)
		}
	})
	s.Go("receiver", func() { got = rx.Pop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// tx 10us + latency 10us = 20us.
	if arrived != vtime.Time(20*vtime.Microsecond) {
		t.Fatalf("arrived at %v, want 20us", arrived)
	}
	if got.Src != "a" || got.SentAt != 0 || got.ArriveAt != arrived {
		t.Fatalf("packet metadata wrong: %+v", got)
	}
}

func TestPipeSerialization(t *testing.T) {
	// Two back-to-back packets must serialize on the wire: second
	// arrival = 2*tx + latency.
	s := vtime.New()
	_, a, b := testNet(s)
	var arrivals []vtime.Time
	rx := vtime.NewQueue[*Packet](s, "rx")
	b.OnDeliver = func(p *Packet) { arrivals = append(arrivals, s.Now()); rx.Push(p) }
	s.Go("sender", func() {
		for i := 0; i < 2; i++ {
			a.Send(&Packet{Dst: "b", Header: make([]byte, 1000)})
		}
	})
	s.Go("receiver", func() { rx.Pop(); rx.Pop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []vtime.Time{vtime.Time(20 * vtime.Microsecond), vtime.Time(30 * vtime.Microsecond)}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestDistinctPairsDoNotSerialize(t *testing.T) {
	s := vtime.New()
	p := Params{WireLatency: 10 * vtime.Microsecond, Bandwidth: 1e8}
	n := NewNetwork(s, "net", p)
	a, b, c := n.Attach("a"), n.Attach("b"), n.Attach("c")
	var tb, tc vtime.Time
	rx := vtime.NewQueue[*Packet](s, "rx")
	b.OnDeliver = func(p *Packet) { tb = s.Now(); rx.Push(p) }
	c.OnDeliver = func(p *Packet) { tc = s.Now(); rx.Push(p) }
	s.Go("sender", func() {
		a.Send(&Packet{Dst: "b", Header: make([]byte, 1000)})
		a.Send(&Packet{Dst: "c", Header: make([]byte, 1000)})
	})
	s.Go("receiver", func() { rx.Pop(); rx.Pop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Separate directed pipes: both arrive at 20us. (A per-NIC TX
	// serialization refinement would stagger these; the model keeps
	// per-pair pipes, which is what Madeleine connections map onto.)
	if tb != tc {
		t.Fatalf("tb=%v tc=%v, want equal", tb, tc)
	}
}

// TestTrunkContention: with an aggregate-bandwidth cap equal to the
// per-pair rate, two concurrent transfers on distinct pipes serialize at
// the shared trunk and take ~2x the solo time, and the contention counters
// record the queueing.
func TestTrunkContention(t *testing.T) {
	run := func(capped bool, pairs int) (last vtime.Time, stats Stats) {
		s := vtime.New()
		p := Params{WireLatency: 10 * vtime.Microsecond, Bandwidth: 1e8}
		if capped {
			p.NetworkBandwidth = 1e8
		}
		n := NewNetwork(s, "net", p)
		src := n.Attach("src")
		rx := vtime.NewQueue[*Packet](s, "rx")
		for i := 0; i < pairs; i++ {
			dst := n.Attach(fmt.Sprintf("d%d", i))
			dst.OnDeliver = func(pk *Packet) {
				if s.Now() > last {
					last = s.Now()
				}
				rx.Push(pk)
			}
		}
		s.Go("sender", func() {
			for i := 0; i < pairs; i++ {
				src.Send(&Packet{Dst: fmt.Sprintf("d%d", i), Header: make([]byte, 1000)}) // 10us tx
			}
		})
		s.Go("receiver", func() {
			for i := 0; i < pairs; i++ {
				rx.Pop()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return last, n.Stats
	}

	solo, _ := run(true, 1) // 10us tx + 10us latency
	if solo != vtime.Time(20*vtime.Microsecond) {
		t.Fatalf("solo capped transfer finished at %v, want 20us", solo)
	}
	dual, stats := run(true, 2) // second packet queues 10us at the trunk
	if dual != vtime.Time(30*vtime.Microsecond) {
		t.Fatalf("two capped transfers finished at %v, want 30us (~2x the 10us solo tx)", dual)
	}
	if stats.TrunkQueueDelay != 10*vtime.Microsecond {
		t.Fatalf("TrunkQueueDelay = %v, want 10us", stats.TrunkQueueDelay)
	}
	if stats.TrunkPeak != 2 {
		t.Fatalf("TrunkPeak = %d, want 2", stats.TrunkPeak)
	}
	// Uncapped control: the same two transfers ride private pipes.
	free, fstats := run(false, 2)
	if free != vtime.Time(20*vtime.Microsecond) {
		t.Fatalf("uncapped transfers finished at %v, want 20us", free)
	}
	if fstats.TrunkQueueDelay != 0 || fstats.TrunkPeak != 0 {
		t.Fatalf("uncapped network recorded trunk stats: %+v", fstats)
	}
}

// TestTrunkSlowerThanPipes: a trunk capacity below the per-pair rate also
// bounds each packet's serialization time.
func TestTrunkSlowerThanPipes(t *testing.T) {
	s := vtime.New()
	p := Params{WireLatency: 10 * vtime.Microsecond, Bandwidth: 1e8, NetworkBandwidth: 5e7}
	n := NewNetwork(s, "net", p)
	a := n.Attach("a")
	b := n.Attach("b")
	var arrived vtime.Time
	rx := vtime.NewQueue[*Packet](s, "rx")
	b.OnDeliver = func(pk *Packet) { arrived = s.Now(); rx.Push(pk) }
	s.Go("sender", func() {
		a.Send(&Packet{Dst: "b", Header: make([]byte, 1000)}) // 20us at 5e7 B/s
	})
	s.Go("receiver", func() { rx.Pop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != vtime.Time(30*vtime.Microsecond) {
		t.Fatalf("arrived at %v, want 30us (20us trunk-rate tx + 10us latency)", arrived)
	}
}

func TestSendToUnknownEndpoint(t *testing.T) {
	s := vtime.New()
	_, a, _ := testNet(s)
	s.Go("sender", func() {
		if err := a.Send(&Packet{Dst: "nope"}); err == nil {
			t.Error("want error for unknown endpoint")
		}
		if err := a.Send(&Packet{Dst: "a"}); err == nil {
			t.Error("want error for self-send")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDropEvery(t *testing.T) {
	s := vtime.New()
	n, a, b := testNet(s)
	n.SetFaults(Faults{DropEvery: 3})
	delivered := 0
	rx := vtime.NewQueue[*Packet](s, "rx")
	b.OnDeliver = func(p *Packet) { delivered++; rx.Push(p) }
	s.Go("sender", func() {
		for i := 0; i < 9; i++ {
			a.Send(&Packet{Dst: "b", Header: []byte{1}})
		}
	})
	s.Go("receiver", func() {
		for i := 0; i < 6; i++ {
			rx.Pop()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 6 {
		t.Fatalf("delivered = %d, want 6 (3 of 9 dropped)", delivered)
	}
	if n.Stats.Dropped != 3 {
		t.Fatalf("Stats.Dropped = %d, want 3", n.Stats.Dropped)
	}
}

func TestJitterPreservesOrder(t *testing.T) {
	s := vtime.New()
	n, a, b := testNet(s)
	n.SetFaults(Faults{JitterPct: 80, Seed: 42})
	var seqs []uint64
	last := vtime.Time(-1)
	rx := vtime.NewQueue[*Packet](s, "rx")
	b.OnDeliver = func(p *Packet) {
		seqs = append(seqs, p.Seq)
		if s.Now() < last {
			t.Error("arrival time ran backwards")
		}
		last = s.Now()
		rx.Push(p)
	}
	s.Go("sender", func() {
		for i := 0; i < 50; i++ {
			a.Send(&Packet{Dst: "b", Header: []byte{byte(i)}})
			s.Sleep(vtime.Microsecond)
		}
	})
	s.Go("receiver", func() {
		for i := 0; i < 50; i++ {
			rx.Pop()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("packets reordered despite in-order guarantee: %v", seqs)
		}
	}
}

func TestJitterDeterministic(t *testing.T) {
	run := func() []vtime.Time {
		s := vtime.New()
		n, a, b := testNet(s)
		n.SetFaults(Faults{JitterPct: 50, Seed: 7})
		var arr []vtime.Time
		rx := vtime.NewQueue[*Packet](s, "rx")
		b.OnDeliver = func(p *Packet) { arr = append(arr, s.Now()); rx.Push(p) }
		s.Go("sender", func() {
			for i := 0; i < 10; i++ {
				a.Send(&Packet{Dst: "b", Header: []byte{1}})
				s.Sleep(50 * vtime.Microsecond)
			}
		})
		s.Go("receiver", func() {
			for i := 0; i < 10; i++ {
				rx.Pop()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return arr
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("jitter nondeterministic at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestTxTimeAndCopyTime(t *testing.T) {
	p := Params{Bandwidth: 1e8, CopyBandwidth: 2e8}
	if got := p.TxTime(1e8); got != vtime.Second {
		t.Fatalf("TxTime = %v, want 1s", got)
	}
	if got := p.CopyTime(2e8); got != vtime.Second {
		t.Fatalf("CopyTime = %v, want 1s", got)
	}
	if p.TxTime(0) != 0 || p.CopyTime(-1) != 0 {
		t.Fatal("zero/negative sizes must cost nothing")
	}
	if (&Params{}).TxTime(100) != 0 {
		t.Fatal("zero bandwidth must cost nothing (infinite-speed placeholder)")
	}
}

func TestPresetsSane(t *testing.T) {
	for _, name := range []string{"tcp", "sisci", "bip", "shm", "self"} {
		p, ok := ByProtocol(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if p.Bandwidth <= 0 || p.WireLatency < 0 || p.SwitchPoint <= 0 {
			t.Fatalf("preset %q has nonsense values: %+v", name, p)
		}
	}
	if _, ok := ByProtocol("quantum"); ok {
		t.Fatal("unknown protocol must not resolve")
	}
	// Aliases.
	if p, _ := ByProtocol("sci"); p.Protocol != "sisci" {
		t.Fatal("sci alias broken")
	}
	if p, _ := ByProtocol("myrinet"); p.Protocol != "bip" {
		t.Fatal("myrinet alias broken")
	}
}

// Property: for any payload sizes, arrival order on one directed pair
// equals send order, and each arrival >= send + tx + 0.
func TestInOrderProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		s := vtime.New()
		_, a, b := testNet(s)
		var order []uint64
		ok := true
		rx := vtime.NewQueue[*Packet](s, "rx")
		b.OnDeliver = func(p *Packet) {
			order = append(order, p.Seq)
			if p.ArriveAt < p.SentAt {
				ok = false
			}
			rx.Push(p)
		}
		s.Go("sender", func() {
			for _, sz := range sizes {
				a.Send(&Packet{Dst: "b", Header: make([]byte, int(sz)%4096)})
			}
		})
		want := len(sizes)
		s.Go("receiver", func() {
			for i := 0; i < want; i++ {
				rx.Pop()
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(order) != len(sizes) {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i] <= order[i-1] {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
