package madeleine

import (
	"strings"
	"testing"

	"mpichmad/internal/netsim"
)

// The paper's protocols assume reliable links (SISCI, BIP and TCP all
// guarantee delivery). These tests verify the failure-injection plumbing
// that lets us check that assumption is load-bearing: a dropped packet
// must surface as a diagnosable deadlock naming the stuck receiver, not
// as silent corruption.

func TestDroppedHeadIsDiagnosableDeadlock(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	p.net.SetFaults(netsim.Faults{DropEvery: 1}) // drop everything
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		conn.packInt(42, SendCheaper, ReceiveExpress)
		conn.EndPacking()
	})
	p.pb.Spawn("recv", func() {
		conn, err := p.chB.BeginUnpacking()
		if err == nil {
			conn.unpackInt(SendCheaper, ReceiveExpress)
			conn.EndUnpacking()
			t.Error("received a message that was dropped on the wire")
		}
	})
	err := p.s.Run()
	if err == nil {
		t.Fatal("want deadlock from the lost message")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "recv") {
		t.Fatalf("deadlock report not diagnosable: %v", err)
	}
}

func TestDroppedBodyStallsOnlyTheUnpack(t *testing.T) {
	// Drop the second packet (the zero-copy body): the head arrives and
	// BeginUnpacking succeeds, but the body Unpack blocks forever.
	p := newPair(t, netsim.FastEthernetTCP())
	p.net.SetFaults(netsim.Faults{DropEvery: 2})
	big := make([]byte, 100000)
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		conn.packInt(len(big), SendCheaper, ReceiveExpress)
		conn.Pack(big, SendCheaper, ReceiveCheaper) // own packet: dropped
		conn.EndPacking()
	})
	reachedBody := false
	p.pb.Spawn("recv", func() {
		conn, err := p.chB.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := conn.unpackInt(SendCheaper, ReceiveExpress); err != nil || n != len(big) {
			t.Errorf("express part should arrive intact: n=%d err=%v", n, err)
			return
		}
		reachedBody = true
		conn.Unpack(make([]byte, len(big)), SendCheaper, ReceiveCheaper) // stalls
		t.Error("body unpack returned despite the drop")
	})
	err := p.s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock, got %v", err)
	}
	if !reachedBody {
		t.Fatal("head packet should have been delivered (only every 2nd packet drops)")
	}
}

func TestJitterDoesNotBreakMessageIntegrity(t *testing.T) {
	// Heavy deterministic jitter reorders nothing (per-pair FIFO) and
	// messages still roundtrip bit-exactly.
	p := newPair(t, netsim.MyrinetBIP())
	p.net.SetFaults(netsim.Faults{JitterPct: 90, Seed: 99})
	const msgs = 20
	p.pa.Spawn("send", func() {
		for i := 0; i < msgs; i++ {
			conn, _ := p.chA.BeginPacking("b")
			conn.packInt(i, SendCheaper, ReceiveExpress)
			conn.Pack(make([]byte, 5000), SendCheaper, ReceiveCheaper)
			conn.EndPacking()
		}
	})
	p.pb.Spawn("recv", func() {
		for i := 0; i < msgs; i++ {
			conn, err := p.chB.BeginUnpacking()
			if err != nil {
				t.Error(err)
				return
			}
			v, _ := conn.unpackInt(SendCheaper, ReceiveExpress)
			if v != i {
				t.Errorf("message %d arrived as %d under jitter", i, v)
			}
			conn.Unpack(make([]byte, 5000), SendCheaper, ReceiveCheaper)
			conn.EndUnpacking()
		}
	})
	p.run(t)
}
