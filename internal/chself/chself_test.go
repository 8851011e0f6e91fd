package chself

import (
	"bytes"
	"errors"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/vtime"
)

func rig(t *testing.T) (*vtime.Scheduler, *marcel.Proc, *adi.Engine, *Device) {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(vtime.Second))
	p := marcel.NewProc(s, "n0")
	eng := adi.NewEngine(p, 0)
	return s, p, eng, New(p, eng)
}

func send(s *vtime.Scheduler, d *Device, tag int, data []byte) *adi.SendReq {
	sr := &adi.SendReq{
		Env:  adi.Envelope{Src: 0, Tag: tag, Context: 0, Len: len(data)},
		Dst:  0,
		Data: data,
		Done: vtime.NewEvent(s, "send"),
	}
	d.Send(sr)
	return sr
}

func TestSelfSendPosted(t *testing.T) {
	s, p, eng, d := rig(t)
	p.Spawn("main", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 1, Context: 0, Buf: make([]byte, 5),
			Done: vtime.NewEvent(s, "recv")}
		eng.PostRecv(rr)
		sr := send(s, d, 1, []byte("hello"))
		sr.Done.Wait()
		rr.Done.Wait()
		if !bytes.Equal(rr.Buf, []byte("hello")) {
			t.Error("payload corrupted")
		}
		if rr.Status.Source != 0 || rr.Status.Len != 5 {
			t.Errorf("status %+v", rr.Status)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d.NMessages != 1 {
		t.Fatalf("NMessages = %d", d.NMessages)
	}
}

func TestSelfSendUnexpectedAllowsBufferReuse(t *testing.T) {
	s, p, eng, d := rig(t)
	p.Spawn("main", func() {
		buf := []byte("first")
		sr := send(s, d, 2, buf)
		sr.Done.Wait()
		copy(buf, "XXXXX") // MPI contract: reusable after send completes
		rr := &adi.RecvReq{Src: 0, Tag: 2, Context: 0, Buf: make([]byte, 5),
			Done: vtime.NewEvent(s, "recv")}
		eng.PostRecv(rr)
		rr.Done.Wait()
		if string(rr.Buf) != "first" {
			t.Errorf("got %q, want first", rr.Buf)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if out := eng.Bufs.Out(); out != 0 {
		t.Errorf("%d stash buffers not released", out)
	}
}

func TestSelfTruncation(t *testing.T) {
	s, p, eng, d := rig(t)
	p.Spawn("main", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 0, Context: 0, Buf: make([]byte, 2),
			Done: vtime.NewEvent(s, "recv")}
		eng.PostRecv(rr)
		send(s, d, 0, []byte("long")).Done.Wait()
		rr.Done.Wait()
		if !errors.Is(rr.Err, adi.ErrTruncate) {
			t.Errorf("err = %v", rr.Err)
		}
		if string(rr.Buf) != "lo" {
			t.Errorf("prefix = %q", rr.Buf)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfCostsCharged(t *testing.T) {
	s, p, eng, d := rig(t)
	p.Spawn("main", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 0, Context: 0, Buf: make([]byte, 1<<20),
			Done: vtime.NewEvent(s, "recv")}
		eng.PostRecv(rr)
		send(s, d, 0, make([]byte, 1<<20)).Done.Wait()
		rr.Done.Wait()
		// One memcpy of 1 MB at 350 MB/s ~ 2857 us.
		got := s.Now().Micros()
		if got < 2000 || got > 4000 {
			t.Errorf("1MB self-send took %.0fus, want ~2860us", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceIdentity(t *testing.T) {
	_, _, _, d := rig(t)
	if d.Name() != "ch_self" {
		t.Fatal("identity wrong")
	}
	d.Shutdown() // no-op
}
