package adi

import (
	"bytes"
	"errors"
	"testing"

	"mpichmad/internal/marcel"
	"mpichmad/internal/vtime"
)

// mockFabric is an in-memory ChannelDevice pair with a fixed delivery
// delay and free copies, for exercising the protocol engine in isolation.
type mockFabric struct {
	s     *vtime.Scheduler
	delay vtime.Duration
	eps   map[int]*mockEP
}

type ctrlMsg struct {
	src int
	pkt []byte
}

type mockEP struct {
	f    *mockFabric
	rank int
	ctrl *vtime.Queue[ctrlMsg]
	bulk map[int]*vtime.Queue[[]byte]
}

func newMockFabric(s *vtime.Scheduler, delay vtime.Duration) *mockFabric {
	return &mockFabric{s: s, delay: delay, eps: make(map[int]*mockEP)}
}

func (f *mockFabric) endpoint(rank int) *mockEP {
	if ep, ok := f.eps[rank]; ok {
		return ep
	}
	ep := &mockEP{
		f:    f,
		rank: rank,
		ctrl: vtime.NewQueue[ctrlMsg](f.s, "mock.ctrl"),
		bulk: make(map[int]*vtime.Queue[[]byte]),
	}
	f.eps[rank] = ep
	return ep
}

func (ep *mockEP) bulkFrom(src int) *vtime.Queue[[]byte] {
	if q, ok := ep.bulk[src]; ok {
		return q
	}
	q := vtime.NewQueue[[]byte](ep.f.s, "mock.bulk")
	ep.bulk[src] = q
	return q
}

func (ep *mockEP) SendControl(dst int, pkt []byte) {
	to := ep.f.endpoint(dst)
	src := ep.rank
	cp := make([]byte, len(pkt))
	copy(cp, pkt)
	ep.f.s.After(ep.f.delay, func() { to.ctrl.Push(ctrlMsg{src: src, pkt: cp}) })
}

func (ep *mockEP) SendBulk(dst int, data []byte) {
	to := ep.f.endpoint(dst)
	src := ep.rank
	cp := make([]byte, len(data))
	copy(cp, data)
	ep.f.s.After(ep.f.delay, func() { to.bulkFrom(src).Push(cp) })
}

func (ep *mockEP) RecvControl() (int, []byte) {
	m := ep.ctrl.Pop()
	return m.src, m.pkt
}

func (ep *mockEP) RecvBulk(src int, dst []byte) {
	data := ep.bulkFrom(src).Pop()
	if len(data) != len(dst) {
		panic("mock: bulk length mismatch")
	}
	copy(dst, data)
}

func (ep *mockEP) CopyCost(n int) vtime.Duration { return 0 }
func (ep *mockEP) Close()                        {}

// rig is a two-rank protocol-engine test rig.
type rig struct {
	s      *vtime.Scheduler
	p0, p1 *marcel.Proc
	e0, e1 *Engine
	d0, d1 *ProtoDevice
}

func newRig(t *testing.T, cfg ProtoConfig) *rig {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(10 * vtime.Second))
	f := newMockFabric(s, 5*vtime.Microsecond)
	p0, p1 := marcel.NewProc(s, "r0"), marcel.NewProc(s, "r1")
	e0, e1 := NewEngine(p0, 0), NewEngine(p1, 1)
	d0 := NewProtoDevice("proto0", e0, f.endpoint(0), cfg)
	d1 := NewProtoDevice("proto1", e1, f.endpoint(1), cfg)
	return &rig{s: s, p0: p0, p1: p1, e0: e0, e1: e1, d0: d0, d1: d1}
}

func (r *rig) send(t *testing.T, d *ProtoDevice, p *marcel.Proc, dst, tag int, data []byte) *SendReq {
	sr := &SendReq{
		Env:  Envelope{Src: d.eng.Rank, Tag: tag, Context: 0, Len: len(data)},
		Dst:  dst,
		Data: data,
		Done: vtime.NewEvent(p.S, "send"),
	}
	d.Send(sr)
	return sr
}

func (r *rig) recv(e *Engine, src, tag, n int) *RecvReq {
	rr := &RecvReq{
		Src: src, Tag: tag, Context: 0,
		Buf:  make([]byte, n),
		Done: vtime.NewEvent(e.P.S, "recv"),
	}
	e.PostRecv(rr)
	return rr
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 7)
	}
	return b
}

// exchange runs one send/recv pair through whichever protocol the size
// selects and checks payload integrity and status.
func exchange(t *testing.T, size int, preposted bool) {
	t.Helper()
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	payload := pattern(size)
	r.p0.Spawn("send", func() {
		sr := r.send(t, r.d0, r.p0, 1, 42, payload)
		sr.Done.Wait()
	})
	r.p1.Spawn("recv", func() {
		if !preposted {
			r.p1.Sleep(200 * vtime.Microsecond) // let the message arrive unexpected
		}
		rr := r.recv(r.e1, 0, 42, size)
		rr.Done.Wait()
		if rr.Err != nil {
			t.Error(rr.Err)
		}
		if !bytes.Equal(rr.Buf, payload) {
			t.Errorf("size %d preposted=%v: payload corrupted", size, preposted)
		}
		if rr.Status.Source != 0 || rr.Status.Tag != 42 || rr.Status.Len != size {
			t.Errorf("status = %+v", rr.Status)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if out := r.e0.Bufs.Out() + r.e1.Bufs.Out(); out != 0 {
		t.Errorf("size %d preposted=%v: %d stash buffers not released", size, preposted, out)
	}
}

func TestShortProtocol(t *testing.T) {
	exchange(t, 10, true)  // expected
	exchange(t, 10, false) // unexpected
	exchange(t, 100, true) // boundary
	exchange(t, 0, true)   // zero-byte
	exchange(t, 0, false)  // zero-byte unexpected
}

func TestEagerProtocol(t *testing.T) {
	exchange(t, 101, true)
	exchange(t, 5000, true)
	exchange(t, 5000, false) // unexpected: drained into temp, extra copy
	exchange(t, 10000, true) // boundary
}

func TestRendezvousProtocol(t *testing.T) {
	exchange(t, 10001, true)
	exchange(t, 100000, true)
	exchange(t, 100000, false) // unexpected rndv: OK deferred until post
}

func TestTruncationShortEagerRndv(t *testing.T) {
	for _, size := range []int{50, 5000, 50000} {
		r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
		payload := pattern(size)
		r.p0.Spawn("send", func() {
			r.send(t, r.d0, r.p0, 1, 1, payload).Done.Wait()
		})
		r.p1.Spawn("recv", func() {
			rr := r.recv(r.e1, 0, 1, size/2)
			rr.Done.Wait()
			if !errors.Is(rr.Err, ErrTruncate) {
				t.Errorf("size %d: err = %v, want ErrTruncate", size, rr.Err)
			}
			if !bytes.Equal(rr.Buf, payload[:size/2]) {
				t.Errorf("size %d: truncated prefix corrupted", size)
			}
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWildcardRecv(t *testing.T) {
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	r.p0.Spawn("send", func() {
		r.send(t, r.d0, r.p0, 1, 7, []byte("hi")).Done.Wait()
	})
	r.p1.Spawn("recv", func() {
		rr := r.recv(r.e1, AnySource, AnyTag, 2)
		rr.Done.Wait()
		if rr.Status.Source != 0 || rr.Status.Tag != 7 {
			t.Errorf("wildcard status = %+v", rr.Status)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	// MPI guarantee: messages on the same (src, tag, context) are
	// matched in send order, across protocol boundaries.
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	sizes := []int{10, 20000, 50, 5000, 30000} // short, rndv, short, eager, rndv
	r.p0.Spawn("send", func() {
		for i, n := range sizes {
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = byte(i)
			}
			r.send(t, r.d0, r.p0, 1, 3, buf).Done.Wait()
		}
	})
	r.p1.Spawn("recv", func() {
		r.p1.Sleep(5 * vtime.Millisecond) // force everything unexpected
		for i, n := range sizes {
			rr := r.recv(r.e1, 0, 3, n)
			rr.Done.Wait()
			if rr.Err != nil {
				t.Error(rr.Err)
			}
			if rr.Status.Len != n {
				t.Errorf("message %d: len %d, want %d (overtaken?)", i, rr.Status.Len, n)
			}
			for j := range rr.Buf {
				if rr.Buf[j] != byte(i) {
					t.Errorf("message %d: wrong payload", i)
					break
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostedQueueFIFO(t *testing.T) {
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	r.p1.Spawn("recv", func() {
		ra := r.recv(r.e1, 0, 5, 1)
		rb := r.recv(r.e1, 0, 5, 1)
		ra.Done.Wait()
		rb.Done.Wait()
		if ra.Buf[0] != 'a' || rb.Buf[0] != 'b' {
			t.Errorf("posted receives matched out of order: %q %q", ra.Buf, rb.Buf)
		}
	})
	r.p0.Spawn("send", func() {
		r.p0.Sleep(50 * vtime.Microsecond)
		r.send(t, r.d0, r.p0, 1, 5, []byte("a")).Done.Wait()
		r.send(t, r.d0, r.p0, 1, 5, []byte("b")).Done.Wait()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	r.p0.Spawn("send", func() {
		r.p0.Sleep(20 * vtime.Microsecond)
		r.send(t, r.d0, r.p0, 1, 9, pattern(64)).Done.Wait()
	})
	r.p1.Spawn("recv", func() {
		if _, ok := r.e1.FindUnexpected(0, 9, 0); ok {
			t.Error("Iprobe found a message before any was sent")
		}
		env := r.e1.WaitUnexpected(AnySource, 9, 0)
		if env.Src != 0 || env.Tag != 9 || env.Len != 64 {
			t.Errorf("probe envelope = %v", env)
		}
		// Probe must not consume: a receive still gets it.
		if _, ok := r.e1.FindUnexpected(0, 9, 0); !ok {
			t.Error("probe consumed the message")
		}
		rr := r.recv(r.e1, 0, 9, 64)
		rr.Done.Wait()
		if !bytes.Equal(rr.Buf, pattern(64)) {
			t.Error("payload corrupted")
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestContextSeparation(t *testing.T) {
	// A receive on context 1 must not match a message on context 0.
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	r.p0.Spawn("send", func() {
		sr := &SendReq{
			Env:  Envelope{Src: 0, Tag: 1, Context: 0, Len: 1},
			Dst:  1,
			Data: []byte("x"),
			Done: vtime.NewEvent(r.s, "send"),
		}
		r.d0.Send(sr)
		sr.Done.Wait()
		sr2 := &SendReq{
			Env:  Envelope{Src: 0, Tag: 1, Context: 1, Len: 1},
			Dst:  1,
			Data: []byte("y"),
			Done: vtime.NewEvent(r.s, "send"),
		}
		r.d0.Send(sr2)
		sr2.Done.Wait()
	})
	r.p1.Spawn("recv", func() {
		rr := &RecvReq{Src: 0, Tag: 1, Context: 1, Buf: make([]byte, 1),
			Done: vtime.NewEvent(r.s, "recv")}
		r.e1.PostRecv(rr)
		rr.Done.Wait()
		if rr.Buf[0] != 'y' {
			t.Errorf("context separation violated: got %q", rr.Buf)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalSimultaneous(t *testing.T) {
	// Both ranks send large (rndv) messages to each other at once; the
	// pumps must not deadlock.
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 1000})
	run := func(p *marcel.Proc, d *ProtoDevice, e *Engine, peer int) func() {
		return func() {
			payload := pattern(50000)
			rr := r.recv(e, peer, 0, 50000)
			sr := r.send(t, d, p, peer, 0, payload)
			sr.Done.Wait()
			rr.Done.Wait()
			if !bytes.Equal(rr.Buf, payload) {
				t.Error("cross payload corrupted")
			}
		}
	}
	r.p0.Spawn("x", run(r.p0, r.d0, r.e0, 1))
	r.p1.Spawn("x", run(r.p1, r.d1, r.e1, 0))
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCtrlEncodingRoundtrip(t *testing.T) {
	env := Envelope{Src: 3, Tag: -1, Context: 7, Len: 123456}
	pkt := encodeCtrl(cRndvReq, env, 99, []byte("inline"))
	kind, gotEnv, id, inline, err := decodeCtrl(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if kind != cRndvReq || gotEnv != env || id != 99 || string(inline) != "inline" {
		t.Fatalf("roundtrip: kind=%d env=%v id=%d inline=%q", kind, gotEnv, id, inline)
	}
	if _, _, _, _, err := decodeCtrl([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated control accepted")
	}
}

func TestEngineCounters(t *testing.T) {
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 10000})
	r.p0.Spawn("send", func() {
		r.send(t, r.d0, r.p0, 1, 1, []byte("a")).Done.Wait()
	})
	r.p1.Spawn("recv", func() {
		r.p1.Sleep(100 * vtime.Microsecond)
		rr := r.recv(r.e1, 0, 1, 1)
		rr.Done.Wait()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.e1.NUnexpected != 1 || r.e1.NMatched != 1 {
		t.Fatalf("counters: unexpected=%d matched=%d", r.e1.NUnexpected, r.e1.NMatched)
	}
	p, u := r.e1.QueueLens()
	if p != 0 || u != 0 {
		t.Fatalf("queues not drained: posted=%d unexp=%d", p, u)
	}
}

func TestDeviceMeta(t *testing.T) {
	r := newRig(t, ProtoConfig{ShortLimit: 100, RndvThreshold: 12345})
	if r.d0.Name() != "proto0" {
		t.Fatal("name")
	}
	if r.d0.SwitchPoint() != 12345 {
		t.Fatal("switch point")
	}
	r.d0.Shutdown()
	r.d0.Shutdown() // idempotent
	r.p0.Spawn("noop", func() {})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtoConfigDefaults(t *testing.T) {
	s := vtime.New()
	p := marcel.NewProc(s, "r0")
	e := NewEngine(p, 0)
	f := newMockFabric(s, 0)
	d := NewProtoDevice("d", e, f.endpoint(0), ProtoConfig{})
	if d.cfg.ShortLimit != 1024 || d.cfg.RndvThreshold != 64<<10 {
		t.Fatalf("defaults: %+v", d.cfg)
	}
	s.Go("noop", func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
