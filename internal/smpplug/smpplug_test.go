package smpplug

import (
	"bytes"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/vtime"
)

type rig struct {
	s     *vtime.Scheduler
	node  *Node
	procs []*marcel.Proc
	engs  []*adi.Engine
	devs  []*Device
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(10 * vtime.Second))
	r := &rig{s: s, node: NewNode(s, "smp0")}
	for i := 0; i < n; i++ {
		p := marcel.NewProc(s, "p")
		eng := adi.NewEngine(p, i)
		r.procs = append(r.procs, p)
		r.engs = append(r.engs, eng)
		r.devs = append(r.devs, r.node.Join(p, eng, i))
	}
	return r
}

func TestIntraNodeExchange(t *testing.T) {
	r := newRig(t, 2)
	payload := bytes.Repeat([]byte{0x5A}, 10000)
	r.procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env:  adi.Envelope{Src: 0, Tag: 3, Context: 0, Len: len(payload)},
			Dst:  1,
			Data: payload,
			Done: vtime.NewEvent(r.s, "send"),
		}
		r.devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err != nil {
			t.Error(sr.Err)
		}
	})
	r.procs[1].Spawn("recv", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 3, Context: 0, Buf: make([]byte, len(payload)),
			Done: vtime.NewEvent(r.s, "recv")}
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
		if !bytes.Equal(rr.Buf, payload) {
			t.Error("payload corrupted through the segment")
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.devs[1].NMessages != 1 {
		t.Fatalf("NMessages = %d", r.devs[1].NMessages)
	}
	if out := r.engs[0].Bufs.Out(); out != 0 {
		t.Errorf("%d segment slots not released", out)
	}
}

func TestUnexpectedIntraNode(t *testing.T) {
	r := newRig(t, 2)
	r.procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 0, Context: 0, Len: 3},
			Dst: 1, Data: []byte("abc"), Done: vtime.NewEvent(r.s, "send"),
		}
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.procs[1].Spawn("recv", func() {
		r.procs[1].Sleep(500 * vtime.Microsecond)
		rr := &adi.RecvReq{Src: adi.AnySource, Tag: adi.AnyTag, Context: 0,
			Buf: make([]byte, 3), Done: vtime.NewEvent(r.s, "recv")}
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
		if string(rr.Buf) != "abc" {
			t.Errorf("got %q", rr.Buf)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if out := r.engs[0].Bufs.Out(); out != 0 {
		t.Errorf("%d segment slots not released", out)
	}
}

func TestBandwidthIsTwoCopies(t *testing.T) {
	// 1 MB through the segment: copy-in + copy-out at 350 MB/s each
	// ~ 5.7 ms total -> effective ~175 MB/s.
	r := newRig(t, 2)
	const n = 1 << 20
	var done vtime.Time
	r.procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 0, Context: 0, Len: n},
			Dst: 1, Data: make([]byte, n), Done: vtime.NewEvent(r.s, "send"),
		}
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.procs[1].Spawn("recv", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 0, Context: 0, Buf: make([]byte, n),
			Done: vtime.NewEvent(r.s, "recv")}
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
		done = r.s.Now()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	ms := done.Micros() / 1000
	if ms < 4.5 || ms > 8 {
		t.Fatalf("1MB intra-node took %.2fms, want ~5.7ms (two memcpy passes)", ms)
	}
}

func TestSendToAbsentRank(t *testing.T) {
	r := newRig(t, 1)
	r.procs[0].Spawn("main", func() {
		sr := &adi.SendReq{Env: adi.Envelope{Src: 0, Len: 1}, Dst: 9,
			Data: []byte{1}, Done: vtime.NewEvent(r.s, "send")}
		r.devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err == nil {
			t.Error("want error for absent rank")
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleJoinPanics(t *testing.T) {
	r := newRig(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double join should panic")
		}
	}()
	r.node.Join(r.procs[0], r.engs[0], 0)
}

func TestDeviceIdentity(t *testing.T) {
	r := newRig(t, 1)
	if r.devs[0].Name() != "smp_plug" {
		t.Fatal("identity wrong")
	}
	r.devs[0].Shutdown()
}
