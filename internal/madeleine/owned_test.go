package madeleine

import (
	"bytes"
	"errors"
	"testing"

	"mpichmad/internal/netsim"
)

// A body block is an owned buffer end to end: packed owned, it is the very
// buffer the far side takes (no copy in between), a taker may pack it again
// (a gateway's store-and-forward), and once every message is consumed
// every buffer is home. go test poisons buffers on release, so a stage
// that read a block after letting go of it would fail the comparisons.
func TestOwnedBodyIsHandedOverNotCopied(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i*13 + 1)
	}
	var packed *netsim.Buf
	p.pa.Spawn("a", func() {
		packed = p.net.Bufs().Get(len(payload))
		copy(packed.B, payload)
		conn, err := p.chA.BeginPacking("b")
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.PackOwned(packed, SendCheaper, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := conn.EndPacking(); err != nil {
			t.Error(err)
		}
		back, err := p.chA.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload))
		if err := back.Unpack(got, SendLater, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := back.EndUnpacking(); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, payload) {
			t.Error("payload corrupted on the way round")
		}
	})
	p.pb.Spawn("b", func() {
		conn, err := p.chB.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		taken, err := conn.Take(len(payload), SendCheaper, ReceiveCheaper)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Error(err)
		}
		if taken != packed {
			t.Error("Take returned a copy, not the buffer that was packed")
		}
		if !bytes.Equal(taken.B, payload) {
			t.Error("taken block corrupted")
		}
		fwd, err := p.chB.BeginPacking("a")
		if err != nil {
			t.Error(err)
			return
		}
		if err := fwd.PackOwned(taken, SendLater, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := fwd.EndPacking(); err != nil {
			t.Error(err)
		}
	})
	p.run(t)
	if out := p.net.Bufs().Out(); out != 0 {
		t.Errorf("%d buffers still out after every message was consumed", out)
	}
}

// Blocks that travel inside the head packet never hold a buffer in flight:
// PackOwned copies them into the head and releases at once, Take copies
// them out into a buffer the caller owns. A PackOwned that fails still
// consumes its buffer.
func TestOwnedAggregatedBlocks(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	small := []byte("fits the SCI aggregation window")
	p.pa.Spawn("a", func() {
		conn, err := p.chA.BeginPacking("b")
		if err != nil {
			t.Error(err)
			return
		}
		for _, mode := range []RecvMode{ReceiveExpress, ReceiveCheaper} {
			buf := p.net.Bufs().Get(len(small))
			copy(buf.B, small)
			if err := conn.PackOwned(buf, SendCheaper, mode); err != nil {
				t.Error(err)
			}
			if out := p.net.Bufs().Out(); out != 0 {
				t.Errorf("aggregated block still holds its buffer (%d out)", out)
			}
		}
		if err := conn.EndPacking(); err != nil {
			t.Error(err)
		}
		stray := p.net.Bufs().Get(8)
		if err := conn.PackOwned(stray, SendCheaper, ReceiveCheaper); !errors.Is(err, ErrNotPacking) {
			t.Errorf("PackOwned outside a message: %v", err)
		}
	})
	p.pb.Spawn("b", func() {
		conn, err := p.chB.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		for _, mode := range []RecvMode{ReceiveExpress, ReceiveCheaper} {
			if _, err := conn.Take(len(small)+1, SendCheaper, mode); !errors.Is(err, ErrBlockMismatch) {
				t.Errorf("Take of the wrong length: %v", err)
			}
			buf, err := conn.Take(len(small), SendCheaper, mode)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf.B, small) {
				t.Errorf("aggregated block taken as %q", buf.B)
			}
			buf.Release()
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Error(err)
		}
	})
	p.run(t)
	if out := p.net.Bufs().Out(); out != 0 {
		t.Errorf("%d buffers still out", out)
	}
}
