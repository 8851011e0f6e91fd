package netsim

import (
	"testing"

	"mpichmad/internal/vtime"
)

// A released buffer is reused LIFO for any request of its size class, with
// the requested length, and the list counts what is out.
func TestBufListReusesByClass(t *testing.T) {
	var l BufList
	a := l.Get(3000)
	if len(a.B) != 3000 || cap(a.B) != 4096 {
		t.Fatalf("Get(3000): len %d cap %d, want 3000/4096", len(a.B), cap(a.B))
	}
	b := l.Get(4096)
	if l.Out() != 2 {
		t.Fatalf("Out = %d with two buffers held", l.Out())
	}
	a.Release()
	b.Release()
	if l.Out() != 0 {
		t.Fatalf("Out = %d with every buffer home", l.Out())
	}
	if c := l.Get(2049); c != b || len(c.B) != 2049 {
		t.Errorf("Get(2049) did not reuse the last 4096-class buffer released (len %d)", len(c.B))
	}
	if c := l.Get(2048); c == a || cap(c.B) != 2048 {
		t.Errorf("Get(2048) took a buffer of the wrong class (cap %d)", cap(c.B))
	}
	for _, n := range []int{0, 1} {
		z := l.Get(n)
		if z.B == nil || len(z.B) != n {
			t.Errorf("Get(%d): %v", n, z.B)
		}
		z.Release()
	}
}

// The ownership guarantees the devices lean on: in a test binary a
// released buffer is poisoned, so a consumer that reads after Release sees
// garbage; a second Release panics; and a buffer always goes home to the
// list that made it, never to the one that happened to consume it.
func TestBufReleasePoisonsAndPanicsOnSecondRelease(t *testing.T) {
	var home, other BufList
	b := home.Get(100)
	for i := range b.B {
		b.B[i] = byte(i)
	}
	kept := b.B
	other.Get(100).Release()
	b.Release()
	for i, v := range kept {
		if v != 0xDB {
			t.Fatalf("byte %d of a released buffer reads %#x, want the 0xDB poison", i, v)
		}
	}
	if home.Out() != 0 || other.Out() != 0 {
		t.Errorf("Out = %d/%d after both lists got their buffer back", home.Out(), other.Out())
	}
	if got := other.Get(100); got == b {
		t.Error("a buffer entered a list that did not make it")
	}
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	b.Release()
}

// A fresh buffer arrives as dirty as a reused one: nobody may lean on
// make's zeros, or the first lease of a class would pass where the second
// fails.
func TestBufGetPoisonsFreshBuffer(t *testing.T) {
	var l BufList
	for i, v := range l.Get(100).B {
		if v != 0xDB {
			t.Fatalf("byte %d of a fresh buffer reads %#x, want the 0xDB poison", i, v)
		}
	}
}

// Network.Bufs is one list per network, there without any set-up; SetBufs
// makes networks share one.
func TestNetworkBufsPerNetwork(t *testing.T) {
	a := NewNetwork(nil, "a", SCISISCI())
	b := NewNetwork(nil, "b", SCISISCI())
	a.Bufs().Get(8)
	if a.Bufs().Out() != 1 || b.Bufs().Out() != 0 {
		t.Errorf("Out = %d/%d, want 1/0: networks share a list", a.Bufs().Out(), b.Bufs().Out())
	}
	var shared BufList
	a.SetBufs(&shared)
	b.SetBufs(&shared)
	a.Bufs().Get(8).Release()
	if got := b.Bufs().Get(8); got.list != &shared || shared.Out() != 1 {
		t.Errorf("after SetBufs: a buffer of list %p, %d out of the shared list", got.list, shared.Out())
	}
}

// Made counts the buffers a list allocates, at their class's capacity, and
// nothing a buffer that came home serves again.
func TestBufListCountsWhatItMakes(t *testing.T) {
	var l BufList
	a, b := l.Get(3000), l.Get(100)
	a.Release()
	l.Get(4096).Release()
	b.Release()
	if n, bytes := l.Made(); n != 2 || bytes != 4096+128 {
		t.Errorf("Made = %d buffers of %d bytes, want 2 of %d", n, bytes, 4096+128)
	}
}

// mustPanic reports whether fn panicked.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A packet record of a network's list comes back with the storage of its
// Header and the delivery the network bound to it, so a record sent again
// allocates nothing; a holder that kept its Header after Release reads the
// poison, and a second Release panics.
func TestStaleHandlePacket(t *testing.T) {
	s := vtime.New()
	n := NewNetwork(s, "net", SCISISCI())
	a, b := n.Attach("a"), n.Attach("b")
	got := make([]*Packet, 0, 16)
	b.OnDeliver = func(p *Packet) { got = append(got, p) }
	p := n.NewPacket()
	p.Dst, p.Header = "b", append(p.Header, "hello"...)
	kept := p.Header
	s.Go("send", func() {
		if err := a.Send(p); err != nil {
			t.Error(err)
		}
		s.Sleep(vtime.Millisecond)
		got[0].Release()
		if q := n.NewPacket(); q != p || len(q.Header) != 0 || cap(q.Header) < 5 {
			t.Errorf("NewPacket after a Release: %p len %d cap %d, want the record back with its storage", q, len(q.Header), cap(q.Header))
		}
		got = got[:0]
		if allocs := testing.AllocsPerRun(10, func() {
			p.Dst, p.Header = "b", append(p.Header[:0], "again"...)
			a.Send(p)
			s.Sleep(vtime.Millisecond)
		}); allocs != 0 {
			t.Errorf("sending a reused packet allocates %v times, want 0", allocs)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[10] != p || string(p.Header) != "again" {
		t.Fatalf("%d deliveries of the reused record", len(got))
	}
	p.Release()
	if kept[0] != 0xDB {
		t.Errorf("a released packet's Header reads %q, want the 0xDB poison", kept)
	}
	mustPanic(t, "a second Release", p.Release)
}
