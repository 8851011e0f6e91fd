package madeleine

import (
	"bytes"
	"math"
	"testing"

	"mpichmad/internal/netsim"
)

// A connection keeps one outgoing and one incoming message record and
// reuses them. What a message record must never reuse is a body packet
// somebody may still hold: one in flight or waiting in the receiver's queue,
// and one the wire lost, which nobody will ever take.

// roundTrips runs n 4-byte round trips between the pair's two processes.
func roundTrips(t *testing.T, n int) {
	p := newPair(t, netsim.SCISISCI())
	bufA, bufB := make([]byte, 4), make([]byte, 4)
	p.pa.Spawn("ping", func() {
		for i := 0; i < n; i++ {
			conn, _ := p.chA.BeginPacking("b")
			conn.Pack(bufA, SendCheaper, ReceiveCheaper)
			conn.EndPacking()
			conn2, _ := p.chA.BeginUnpacking()
			conn2.Unpack(bufA, SendCheaper, ReceiveCheaper)
			conn2.EndUnpacking()
		}
	})
	p.pb.Spawn("pong", func() {
		for i := 0; i < n; i++ {
			conn, _ := p.chB.BeginUnpacking()
			conn.Unpack(bufB, SendCheaper, ReceiveCheaper)
			conn.EndUnpacking()
			conn2, _ := p.chB.BeginPacking("a")
			conn2.Pack(bufB, SendCheaper, ReceiveCheaper)
			conn2.EndPacking()
		}
	})
	p.run(t)
}

// A 4-byte round trip is two messages, and a message allocates nothing once
// the connections and the network's packet list are warm: the head packet
// and its encoding are a record of that list, and the wire's delivery is
// bound to the record once. The budget of 1 is for a stray runtime
// allocation (6 when every message made its head and its delivery, 16 when
// it also made its records and descriptor tables anew).
func TestAllocBudgetRoundtrip4B(t *testing.T) {
	const short, long = 50, 250
	at := func(n int) float64 { return testing.AllocsPerRun(3, func() { roundTrips(t, n) }) }
	// Rounded: a stray runtime allocation (the race detector's) or two
	// shows in the difference of two whole-run averages.
	per := (at(long) - at(short)) / (long - short)
	t.Logf("a 4 B round trip allocates %.2f times", per)
	if math.Round(per) > 1 {
		t.Errorf("a 4 B round trip allocates %.2f times, budget 1", per)
	}
}

// bodyPacket is the packet of the first body of the message conn is packing.
func bodyPacket(conn *Connection) *netsim.Packet { return &conn.out.bodies[0].pkt }

// Two messages sent back to back, before the receiver has taken the first
// body: the second message's body is a packet of its own, and each body
// arrives with its own bytes.
func TestRecycleKeepsABodyInFlight(t *testing.T) {
	p := newPair(t, netsim.FastEthernetTCP())
	first, second := bytes.Repeat([]byte{1}, 100000), bytes.Repeat([]byte{2}, 100000)
	var pkts []*netsim.Packet
	p.pa.Spawn("send", func() {
		for _, data := range [][]byte{first, second} {
			conn, _ := p.chA.BeginPacking("b")
			conn.Pack(data, SendCheaper, ReceiveCheaper)
			pkts = append(pkts, bodyPacket(conn))
			conn.EndPacking()
		}
	})
	p.pb.Spawn("recv", func() {
		p.pb.S.Sleep(p.chB.Params.WireLatency * 1000) // both bodies wait in the queue
		for _, want := range [][]byte{first, second} {
			conn, err := p.chB.BeginUnpacking()
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, len(want))
			conn.Unpack(got, SendCheaper, ReceiveCheaper)
			conn.EndUnpacking()
			if !bytes.Equal(got, want) {
				t.Errorf("body of message %d arrived with another message's bytes", want[0])
			}
		}
	})
	p.run(t)
	if len(pkts) != 2 || pkts[0] == pkts[1] {
		t.Fatal("the second message reused the packet of a body still in flight")
	}
}

// The wire loses the first message's body: nobody will take it, so the next
// message's body must not be that packet, and it arrives whole.
func TestRecycleKeepsALostBodysPacket(t *testing.T) {
	p := newPair(t, netsim.FastEthernetTCP())
	p.net.SetFaults(netsim.Faults{DropEvery: 2}) // head kept, body dropped
	data := bytes.Repeat([]byte{7}, 100000)
	var lost, next *netsim.Packet
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		conn.Pack(data, SendCheaper, ReceiveCheaper)
		lost = bodyPacket(conn)
		conn.EndPacking()
		p.net.SetFaults(netsim.Faults{})
		conn, _ = p.chA.BeginPacking("b")
		conn.Pack(data, SendCheaper, ReceiveCheaper)
		next = bodyPacket(conn)
		conn.EndPacking()
	})
	p.pb.Spawn("idle", func() { p.pb.S.Sleep(p.chB.Params.WireLatency * 1000) }) // lets both arrive
	p.run(t)
	if lost == next {
		t.Fatal("the lost body's packet was handed to the next message")
	}
	conn := p.chB.conns["a"]
	if conn.bodies.Len() != 1 {
		t.Fatalf("%d body packets arrived, want the second message's 1", conn.bodies.Len())
	}
	if pkt := conn.bodies.Pop(); pkt != next || !bytes.Equal(pkt.Body, data) {
		t.Error("the second message's body did not arrive whole in its own packet")
	}
}

// A message with more bodies than the record held before grows the record,
// which copies the body slots the message has filled so far: each copy's
// packet is delivered as itself, not as the slot it was copied from
// (netsim binds the delivery to a packet's own address), so the receiver
// takes the very body its sender settles and no wire buffer stays out.
func TestRecycleGrowsTheBodies(t *testing.T) {
	p := newPair(t, netsim.FastEthernetTCP())
	msgs := [][][]byte{{bytes.Repeat([]byte{1}, 5000)}, {bytes.Repeat([]byte{2}, 5000), bytes.Repeat([]byte{3}, 6000), bytes.Repeat([]byte{4}, 7000)}}
	p.pa.Spawn("send", func() {
		for _, blocks := range msgs {
			conn, _ := p.chA.BeginPacking("b")
			for _, data := range blocks {
				conn.Pack(data, SendCheaper, ReceiveCheaper)
			}
			conn.EndPacking()
			p.pa.S.Sleep(p.chA.Params.WireLatency * 1000) // the body is taken: the next message reuses the record
		}
	})
	p.pb.Spawn("recv", func() {
		for i, blocks := range msgs {
			conn, err := p.chB.BeginUnpacking()
			if err != nil {
				t.Error(err)
				return
			}
			for j, want := range blocks {
				got := make([]byte, len(want))
				if err := conn.Unpack(got, SendCheaper, ReceiveCheaper); err != nil || !bytes.Equal(got, want) {
					t.Errorf("message %d body %d: %v, or another body's bytes", i, j, err)
				}
			}
			conn.EndUnpacking()
		}
	})
	p.run(t)
	if out := p.net.Bufs().Out(); out != 0 {
		t.Errorf("%d wire buffers still out", out)
	}
}
