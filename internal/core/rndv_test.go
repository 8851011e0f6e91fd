package core

// Tests of the rendez-vous tables' failure edges: a route that is missing
// or withdrawn mid-handshake must fail the one request it affects and leave
// both tables clean, and a zero-length synchronous send must cross a
// gateway like any other rendez-vous.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// pairRig wires two devices over one SCI network; backRoute selects
// whether rank 1 can reach rank 0.
func pairRig(t testing.TB, backRoute bool) *wireRig {
	t.Helper()
	r := newWireRig(t, 2, netsim.SCISISCI())
	r.devs[0].addRoute(1, Route{Channel: r.chans[0][0], NextNode: "n1"})
	if backRoute {
		r.devs[1].addRoute(0, Route{Channel: r.chans[1][0], NextNode: "n0"})
	}
	r.start()
	return r
}

func rndvSendReq(r *wireRig, dst int, data []byte) *adi.SendReq {
	return &adi.SendReq{
		Env: adi.Envelope{Src: 0, Tag: 3, Context: 0, Len: len(data)},
		Dst: dst, Data: data, Sync: true, Done: vtime.NewEvent(r.s, "send"),
	}
}

func postRecv(r *wireRig, rank, n int) *adi.RecvReq {
	rr := &adi.RecvReq{Src: 0, Tag: 3, Context: 0, Buf: make([]byte, n), Done: vtime.NewEvent(r.s, "recv")}
	r.engs[rank].PostRecv(rr)
	return rr
}

// TestNoReturnRouteLeavesNoSync: a receiver that cannot route the SendOK
// back fails the receive — and must not leave a sync_address open behind
// the error, or the Finalize audit reports a second, misleading fault.
func TestNoReturnRouteLeavesNoSync(t *testing.T) {
	r := pairRig(t, false)
	// The sender's request stays parked (nothing can answer it), so the
	// sending task does not wait for completion.
	r.procs[0].Spawn("send", func() { r.devs[0].Send(rndvSendReq(r, 1, pattern(64))) })
	var recvErr error
	r.procs[1].Spawn("recv", func() {
		rr := postRecv(r, 1, 64)
		rr.Done.Wait()
		recvErr = rr.Err
	})
	r.run(t)
	if recvErr == nil || !strings.Contains(recvErr.Error(), "no return route to rank 0") {
		t.Fatalf("receive error = %v, want the missing return route", recvErr)
	}
	if err := r.devs[1].AuditInvariants(); err != nil {
		t.Fatalf("receiver audit after the failed receive: %v", err)
	}
}

// TestSendOKAfterRouteWithdrawn: the destination's rails are withdrawn
// between REQUEST and SENDOK. The parked send must fail with an error (not
// dereference the missing route on a temporary thread) and leave the
// sender's tables clean.
func TestSendOKAfterRouteWithdrawn(t *testing.T) {
	r := pairRig(t, true)
	sr := rndvSendReq(r, 1, pattern(64))
	r.procs[0].Spawn("send", func() {
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.s.At(vtime.Time(2*vtime.Millisecond), func() { r.devs[0].SetRails(1, nil) })
	// The receive matches (and answers) only after the withdrawal; its body
	// never comes, so the receiving task does not wait for it.
	r.procs[1].Spawn("recv", func() {
		r.procs[1].Sleep(5 * vtime.Millisecond)
		postRecv(r, 1, 64)
	})
	r.run(t)
	if sr.Err == nil || !strings.Contains(sr.Err.Error(), "lost its route to rank 1") {
		t.Fatalf("send error = %v, want the withdrawn route", sr.Err)
	}
	if err := r.devs[0].AuditInvariants(); err != nil {
		t.Fatalf("sender audit after the failed send: %v", err)
	}
}

// TestRelayedZeroLengthSsend: a zero-length synchronous send still ships
// an (empty) body block behind its MAD_RNDV_PKT; a gateway must drain and
// re-emit that block like any other body.
func TestRelayedZeroLengthSsend(t *testing.T) {
	r := chainRig(t, 2, 0)
	r.start()
	sr := rndvSendReq(r, 2, nil)
	r.procs[0].Spawn("send", func() {
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	var rr *adi.RecvReq
	r.procs[2].Spawn("recv", func() {
		rr = postRecv(r, 2, 0)
		rr.Done.Wait()
	})
	r.run(t)
	if sr.Err != nil || rr.Err != nil {
		t.Fatalf("send err %v, recv err %v", sr.Err, rr.Err)
	}
	if gw := r.devs[1]; gw.NForwarded != 3 || gw.RelayBytes != 0 || gw.RelayQueuePeak != 0 {
		t.Errorf("gateway forwarded %d messages, %d bytes, queue peak %d; want 3 (REQUEST, SENDOK, empty body), 0, 0",
			gw.NForwarded, gw.RelayBytes, gw.RelayQueuePeak)
	}
	for i, d := range r.devs {
		if err := d.AuditInvariants(); err != nil {
			t.Errorf("rank %d audit: %v", i, err)
		}
	}
}

// TestTruncatedBodyCopiedOnce: a rendez-vous body longer than the posted
// buffer, whole (MAD_RNDV_PKT) or as a segment train (MAD_RNDVSEG_PKT), ends
// the receive in ErrTruncate with the buffer holding the body's prefix, and
// costs the receiver one copy of that prefix on top of what a receive of the
// whole body costs: not none, not two.
func TestTruncatedBodyCopiedOnce(t *testing.T) {
	const size, post = 64 << 10, 10 << 10
	sci := netsim.SCISISCI()
	payload := pattern(size)
	for _, seg := range []int{0, 4 << 10} {
		hops := 1
		if seg > 0 {
			hops = 2 // a multi-hop route ships its body as a segment train
		}
		recv := func(n int) (*adi.RecvReq, vtime.Duration) {
			r := newWireRig(t, 2, sci)
			r.devs[0].addRoute(1, Route{Channel: r.chans[0][0], NextNode: "n1", Hops: hops, SegBytes: seg})
			r.devs[1].addRoute(0, Route{Channel: r.chans[1][0], NextNode: "n0"})
			r.start()
			r.procs[0].Spawn("send", func() {
				sr := rndvSendReq(r, 1, payload)
				r.devs[0].Send(sr)
				sr.Done.Wait()
			})
			var rr *adi.RecvReq
			var busy vtime.Duration
			r.procs[1].Spawn("recv", func() {
				rr = postRecv(r, 1, n)
				rr.Done.Wait()
				busy = r.procs[1].CPUBusy
			})
			r.run(t)
			return rr, busy
		}
		whole, wholeBusy := recv(size)
		cut, cutBusy := recv(post)
		if whole.Err != nil || !bytes.Equal(whole.Buf, payload) {
			t.Fatalf("segment %d: the untruncated receive failed (%v) or corrupted its body", seg, whole.Err)
		}
		if !errors.Is(cut.Err, adi.ErrTruncate) || !bytes.Equal(cut.Buf, payload[:post]) {
			t.Errorf("segment %d: truncated receive err=%v, prefix intact %v; want ErrTruncate and the prefix",
				seg, cut.Err, bytes.Equal(cut.Buf, payload[:post]))
		}
		if extra, once := cutBusy-wholeBusy, sci.CopyTime(post); extra != once {
			t.Errorf("segment %d: truncating cost the receiver %v more CPU, want one %d-byte copy, %v", seg, extra, post, once)
		}
	}
}
