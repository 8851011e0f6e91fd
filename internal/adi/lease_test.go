package adi

import (
	"bytes"
	"errors"
	"testing"

	"mpichmad/internal/vtime"
)

// A receive posted with a Lease and no buffer gets its bytes from the
// engine's list when a message matches it, not when it is posted: at
// MatchPosted when it was posted first, in PostRecv when the message was
// waiting unexpected. It works through every transfer mode of the generic
// protocol; a longer message ends in ErrTruncate at the leased length; once
// the poster has released the lease, every buffer of the list is home; and
// a request of the free list comes back with neither field set.
func TestLeaseAtMatch(t *testing.T) {
	for _, size := range []int{10, 5000, 50000} { // short, eager, rendez-vous
		for _, posted := range []bool{true, false} {
			for _, lease := range []int{size, size / 2} {
				leaseAtMatch(t, size, lease, posted)
			}
		}
	}
}

func leaseAtMatch(t *testing.T, size, lease int, posted bool) {
	t.Helper()
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	payload := pattern(size)
	r.p0.Spawn("send", func() {
		r.send(t, r.d0, r.p0, 1, 9, payload).Done.Wait()
	})
	r.p1.Spawn("recv", func() {
		if !posted {
			r.p1.Sleep(200 * vtime.Microsecond) // let the message arrive unexpected
		}
		rr := r.e1.NewRecv("lease")
		rr.Src, rr.Tag, rr.Lease = 0, 9, lease
		r.e1.PostRecv(rr)
		if posted && (rr.Buf != nil || rr.Leased != nil || r.e1.Bufs.Out() != 0) {
			t.Errorf("size %d: a posted receive was leased %d buffers before its message matched", size, r.e1.Bufs.Out())
		}
		rr.Done.Wait()
		switch {
		case rr.Leased == nil || len(rr.Buf) != lease || &rr.Buf[0] != &rr.Leased.B[0]:
			t.Errorf("size %d lease %d posted=%v: Buf is not a %d-byte buffer of the engine's list", size, lease, posted, lease)
		case !bytes.Equal(rr.Buf, payload[:lease]):
			t.Errorf("size %d lease %d posted=%v: payload corrupted", size, lease, posted)
		case lease < size && !errors.Is(rr.Err, ErrTruncate):
			t.Errorf("size %d lease %d posted=%v: err = %v, want ErrTruncate", size, lease, posted, rr.Err)
		case lease == size && rr.Err != nil:
			t.Errorf("size %d posted=%v: %v", size, posted, rr.Err)
		}
		if out := r.e1.Bufs.Out(); out != 1 {
			t.Errorf("size %d lease %d posted=%v: %d buffers out with the lease held, want 1", size, lease, posted, out)
		}
		rr.ReleaseLease()
		rr.Release()
		if again := r.e1.NewRecv("again"); again != rr || again.Lease != 0 || again.Leased != nil {
			t.Errorf("the receive request handed out again still has a lease: %+v", again)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if out := r.e0.Bufs.Out() + r.e1.Bufs.Out(); out != 0 {
		t.Errorf("size %d lease %d posted=%v: %d buffers out after the lease went home", size, lease, posted, out)
	}
}
