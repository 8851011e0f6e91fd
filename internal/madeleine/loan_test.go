package madeleine

// Tests of the loan: Pack borrows a body's bytes, EndPacking settles them —
// into the destination of the Unpack parked on that very packet, or into a
// wire buffer — and a receiver that pops the packet earlier copies from the
// sender's memory itself. Whatever the interleaving, the sender may scribble
// on its buffers the line after EndPacking, the receiver sees the bytes that
// were packed, and every wire buffer ends up home.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

func loanPattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) ^ salt
	}
	return b
}

// The loan matrix: one- and two-body messages, a receiver that is waiting
// when the body serialises or shows up a virtual second late, first block
// by Unpack or by Take. The sender overwrites both buffers right after
// EndPacking.
func TestLoanMatrix(t *testing.T) {
	for _, bodies := range []int{1, 2} {
		for _, late := range []bool{false, true} {
			for _, take := range []bool{false, true} {
				name := fmt.Sprintf("bodies=%d/late=%v/take=%v", bodies, late, take)
				t.Run(name, func(t *testing.T) { loanCase(t, bodies, late, take) })
			}
		}
	}
}

func loanCase(t *testing.T, bodies int, late, take bool) {
	p := newPair(t, netsim.SCISISCI())
	want := [][]byte{loanPattern(96<<10, 1), loanPattern(40<<10, 2)}[:bodies]
	p.pa.Spawn("send", func() {
		sent := make([][]byte, bodies)
		conn, err := p.chA.BeginPacking("b")
		if err != nil {
			t.Error(err)
			return
		}
		for i := range sent {
			sent[i] = bytes.Clone(want[i])
			if err := conn.Pack(sent[i], SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
			}
		}
		if out := p.net.Bufs().Out(); out != 0 {
			t.Errorf("Pack copied: %d wire buffers out before EndPacking", out)
		}
		if err := conn.EndPacking(); err != nil {
			t.Error(err)
		}
		for _, b := range sent {
			clear(b) // the sender's again: whoever wanted the bytes has them
		}
	})
	p.pb.Spawn("recv", func() {
		if late {
			p.pb.Sleep(vtime.Second)
		}
		conn, err := p.chB.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		for i, w := range want {
			got := make([]byte, len(w))
			if take && i == 0 {
				buf, err := conn.Take(len(w), SendCheaper, ReceiveCheaper)
				if err != nil {
					t.Error(err)
					return
				}
				copy(got, buf.B)
				buf.Release()
			} else if err := conn.Unpack(got, SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, w) {
				t.Errorf("body %d corrupted", i)
			}
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Error(err)
		}
	})
	p.run(t)
	if out := p.net.Bufs().Out(); out != 0 {
		t.Errorf("%d wire buffers still out", out)
	}
}

// slowLink has a latency of one and a half times what a 64 KiB body takes to
// serialise, so a second such message is settled while the first one's body
// is still in flight and its head has already been read.
func slowLink() netsim.Params {
	p := netsim.SCISISCI()
	p.WireLatency = p.TxTime(64<<10) * 3 / 2
	return p
}

// Two messages in flight. The sender has completed message 1 and settles
// message 2 while the receiver is still parked on message 1's body, with a
// destination of exactly message 2's length: the body counts disagree, so
// message 2 travels in a wire buffer and lands where its own Unpack says.
func TestLoanTwoMessagesInFlight(t *testing.T) {
	p := newPair(t, slowLink())
	const n = 64 << 10
	want := [][]byte{loanPattern(n, 3), loanPattern(n, 4)}
	parkedAtSettle := false
	p.pa.Spawn("send", func() {
		for i, w := range want {
			buf := bytes.Clone(w)
			conn, err := p.chA.BeginPacking("b")
			if err != nil {
				t.Error(err)
				return
			}
			if err := conn.Pack(buf, SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
			}
			if err := conn.EndPacking(); err != nil {
				t.Error(err)
			}
			if rc := p.chB.conns["a"]; i == 1 && rc != nil && rc.want != nil && rc.bodiesIn == 0 {
				parkedAtSettle = true
			}
			clear(buf)
		}
	})
	p.pb.Spawn("recv", func() {
		for i, w := range want {
			conn, err := p.chB.BeginUnpacking()
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, n)
			if err := conn.Unpack(got, SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
			}
			if err := conn.EndUnpacking(); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(got, w) {
				t.Errorf("message %d corrupted", i+1)
			}
		}
	})
	p.run(t)
	if !parkedAtSettle {
		t.Error("the receiver was not parked on message 1 when message 2 was settled: the test no longer tests the counter rule")
	}
	if out, in := p.chA.conns["b"].bodiesOut, p.chB.conns["a"].bodiesIn; out != 2 || in != 2 {
		t.Errorf("body counts: sent %d, consumed %d, want 2 and 2", out, in)
	}
	if out := p.net.Bufs().Out(); out != 0 {
		t.Errorf("%d wire buffers still out", out)
	}
}

// After a drop the two body counts of the connection never agree again, so
// nothing lands directly any more: the receiver, parked with the right
// length every time, gets each later body — the next one the in-order pipe
// has for it — intact, out of a wire buffer.
func TestLoanAfterDrop(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	p.net.SetFaults(netsim.Faults{DropEvery: 2}) // message 1's body
	const n = 64 << 10
	msgs := [][]byte{loanPattern(n, 5), loanPattern(n, 6), loanPattern(n, 7)}
	p.pa.Spawn("send", func() {
		for i, w := range msgs {
			buf := bytes.Clone(w)
			conn, err := p.chA.BeginPacking("b")
			if err != nil {
				t.Error(err)
				return
			}
			if err := conn.Pack(buf, SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
			}
			if err := conn.EndPacking(); err != nil {
				t.Error(err)
			}
			if rc := p.chB.conns["a"]; i > 0 && (rc == nil || len(rc.want) != n) {
				t.Errorf("message %d: the receiver is not parked on a body of this length at settle time", i+1)
			}
			if out := p.net.Bufs().Out(); i > 0 && out != 2 { // the lost one, and this body's
				t.Errorf("message %d: %d wire buffers out at settle time: the body is not in one", i+1, out)
			}
			clear(buf)
			p.net.SetFaults(netsim.Faults{})
		}
	})
	p.pb.Spawn("recv", func() {
		for _, w := range msgs[1:] { // head k comes with body k+1
			conn, err := p.chB.BeginUnpacking()
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, n)
			if err := conn.Unpack(got, SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
			}
			if err := conn.EndUnpacking(); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(got, w) {
				t.Error("a body after the drop was not delivered intact")
			}
		}
	})
	p.run(t)
	if p.net.Stats.Dropped != 1 {
		t.Fatalf("%d packets dropped, want 1", p.net.Stats.Dropped)
	}
	if out, in := p.chA.conns["b"].bodiesOut, p.chB.conns["a"].bodiesIn; out != 3 || in != 2 {
		t.Errorf("body counts: sent %d, consumed %d, want 3 and 2", out, in)
	}
	if out := p.net.Bufs().Out(); out != 1 { // the dropped packet's own buffer is lost with it
		t.Errorf("%d wire buffers out, want only the dropped packet's", out)
	}
}

// Error paths send their buffers home. EndPacking toward a node that is not
// on the network fails at the first packet: the owned body it had taken over
// is released, the borrowed one forgotten. And a body packet that is not the
// length its descriptor announced (what a drop leaves behind when sizes
// differ) is an error of Take, which releases what it popped.
func TestLoanErrorPathsSendBuffersHome(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	p.pa.Spawn("send", func() {
		conn, err := p.chA.BeginPacking("nobody")
		if err != nil {
			t.Error(err)
			return
		}
		owned := p.net.Bufs().Get(32 << 10)
		if err := conn.PackOwned(owned, SendLater, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := conn.Pack(make([]byte, 32<<10), SendCheaper, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := conn.EndPacking(); err == nil || !strings.Contains(err.Error(), "nobody") {
			t.Errorf("EndPacking toward an unattached node: %v", err)
		}
		if out := p.net.Bufs().Out(); out != 0 {
			t.Errorf("%d wire buffers out after the failed EndPacking", out)
		}
		if _, err := p.chA.BeginPacking("nobody"); err != nil {
			t.Errorf("the failed EndPacking kept the send lock: %v", err)
		}
	})
	p.run(t)

	p = newPair(t, netsim.SCISISCI())
	p.net.SetFaults(netsim.Faults{DropEvery: 2}) // message 1's body
	p.pa.Spawn("send", func() {
		for _, n := range []int{32 << 10, 48 << 10} {
			conn, err := p.chA.BeginPacking("b")
			if err != nil {
				t.Error(err)
				return
			}
			if err := conn.Pack(make([]byte, n), SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
			}
			if err := conn.EndPacking(); err != nil {
				t.Error(err)
			}
			p.net.SetFaults(netsim.Faults{})
		}
	})
	p.pb.Spawn("recv", func() {
		p.pb.Sleep(vtime.Second) // both messages settled into wire buffers
		conn, err := p.chB.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Take(32<<10, SendCheaper, ReceiveCheaper); err == nil || !strings.Contains(err.Error(), "descriptor says") {
			t.Errorf("Take of message 1's body got message 2's: %v", err)
		}
	})
	p.run(t)
	if out := p.net.Bufs().Out(); out != 1 { // the dropped packet's own buffer is lost with it
		t.Errorf("%d wire buffers out, want only the dropped packet's", out)
	}
}

// Copied once: in steady state an 8 MiB round trip allocates nothing the
// size of its payload and takes no wire buffer of the body's class — the
// network draws from a new, empty list after the warm-up, so taking one
// would mean making one.
// It is the guard that keeps Pack's snapshot from coming back unnoticed.
func TestLoanCopiedOnce(t *testing.T) {
	const size, trips = 8 << 20, 3
	p := newPair(t, netsim.SCISISCI())
	ping, back, pong := loanPattern(size, 8), make([]byte, size), make([]byte, size)
	send := func(ch *Channel, remote string, data []byte) {
		conn, err := ch.BeginPacking(remote)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Pack(data, SendCheaper, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := conn.EndPacking(); err != nil {
			t.Error(err)
		}
	}
	recv := func(ch *Channel, into []byte) {
		conn, err := ch.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Unpack(into, SendCheaper, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Error(err)
		}
	}
	var grew uint64
	warm := p.net.Bufs()
	p.pa.Spawn("ping", func() {
		var before, after runtime.MemStats
		for i := 0; i < 1+trips; i++ {
			if i == 1 { // warmed up
				p.net.SetBufs(new(netsim.BufList))
				runtime.ReadMemStats(&before)
			}
			send(p.chA, "b", ping)
			recv(p.chA, back)
		}
		runtime.ReadMemStats(&after)
		grew = after.TotalAlloc - before.TotalAlloc
	})
	p.pb.Spawn("pong", func() {
		for i := 0; i < 1+trips; i++ {
			recv(p.chB, pong)
			send(p.chB, "a", pong)
		}
	})
	p.run(t)
	if !bytes.Equal(back, ping) {
		t.Error("payload corrupted on the way round")
	}
	if grew >= 64<<10 {
		t.Errorf("%d round trips of %d bytes allocated %d bytes: the body is being copied through a buffer made for it",
			trips, size, grew)
	}
	if out := warm.Out() + p.net.Bufs().Out(); out != 0 {
		t.Errorf("%d wire buffers still out", out)
	}
}
