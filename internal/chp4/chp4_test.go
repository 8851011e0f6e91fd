package chp4

import (
	"bytes"
	"math"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

type rig struct {
	s     *vtime.Scheduler
	procs []*marcel.Proc
	engs  []*adi.Engine
	devs  []*adi.ProtoDevice
	net   *netsim.Network
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(100 * vtime.Second))
	net := netsim.NewNetwork(s, "tcp", netsim.FastEthernetTCP())
	ranks := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ranks[i] = nodeName(i)
	}
	r := &rig{s: s, net: net}
	for i := 0; i < n; i++ {
		p := marcel.NewProc(s, nodeName(i))
		eng := adi.NewEngine(p, i)
		r.procs = append(r.procs, p)
		r.engs = append(r.engs, eng)
		r.devs = append(r.devs, New(p, eng, net, ranks))
	}
	return r
}

func nodeName(i int) string { return string(rune('a' + i)) }

func (r *rig) exchange(t *testing.T, size int) vtime.Duration {
	t.Helper()
	payload := bytes.Repeat([]byte{0xC3}, size)
	var done vtime.Time
	r.procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 1, Context: 0, Len: size},
			Dst: 1, Data: payload, Done: vtime.NewEvent(r.s, "send"),
		}
		r.devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err != nil {
			t.Error(sr.Err)
		}
	})
	r.procs[1].Spawn("recv", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 1, Context: 0, Buf: make([]byte, size),
			Done: vtime.NewEvent(r.s, "recv")}
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
		if !bytes.Equal(rr.Buf, payload) {
			t.Error("payload corrupted")
		}
		done = r.s.Now()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	// Each transport holds the control packet it returned last; every
	// other socket-buffer copy is home once its receiver has copied out.
	if out := r.net.Bufs().Out(); out > len(r.devs) {
		t.Errorf("size %d: %d socket buffers still out", size, out)
	}
	return done.Sub(0)
}

func TestShortEagerRndvPaths(t *testing.T) {
	// Short (<=1K inline), eager (<=64K), rendez-vous (beyond).
	for _, size := range []int{0, 100, 1 << 10, 8 << 10, 64 << 10, 256 << 10} {
		r := newRig(t, 2)
		r.exchange(t, size)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// ch_p4's defining behaviour (Fig. 6b): the double socket copy caps
	// bandwidth near 10 MB/s even for huge rendez-vous messages.
	r := newRig(t, 2)
	oneWay := r.exchange(t, 8*netsim.MB)
	bw := float64(8*netsim.MB) / oneWay.Seconds() / netsim.MB
	if math.Abs(bw-10.0) > 0.5 {
		t.Fatalf("ch_p4 8MB bandwidth = %.2f MB/s, want ~10", bw)
	}
}

func TestSmallLatencyAboveRaw(t *testing.T) {
	// ch_p4 4-byte latency must sit above raw TCP (121 us) with its own
	// control overhead, in the ~150-170 us band of Fig. 6a.
	r := newRig(t, 2)
	lat := r.exchange(t, 4).Micros()
	if lat < 140 || lat > 180 {
		t.Fatalf("ch_p4 4B latency = %.1fus, want 140-180", lat)
	}
}

func TestThreeRanksCrossTraffic(t *testing.T) {
	r := newRig(t, 3)
	// Ranks 1 and 2 both send to 0; rank 0 receives by wildcard.
	for _, src := range []int{1, 2} {
		src := src
		r.procs[src].Spawn("send", func() {
			sr := &adi.SendReq{
				Env: adi.Envelope{Src: src, Tag: src, Context: 0, Len: 2000},
				Dst: 0, Data: bytes.Repeat([]byte{byte(src)}, 2000),
				Done: vtime.NewEvent(r.s, "send"),
			}
			r.devs[src].Send(sr)
			sr.Done.Wait()
		})
	}
	r.procs[0].Spawn("recv", func() {
		for i := 0; i < 2; i++ {
			rr := &adi.RecvReq{Src: adi.AnySource, Tag: adi.AnyTag, Context: 0,
				Buf: make([]byte, 2000), Done: vtime.NewEvent(r.s, "recv")}
			r.engs[0].PostRecv(rr)
			rr.Done.Wait()
			if rr.Buf[0] != byte(rr.Status.Source) {
				t.Errorf("message from %d carries %d", rr.Status.Source, rr.Buf[0])
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	s := vtime.New()
	net := netsim.NewNetwork(s, "tcp", netsim.FastEthernetTCP())
	p := marcel.NewProc(s, "a")
	eng := adi.NewEngine(p, 0)
	New(p, eng, net, map[int]string{0: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("second attach should panic")
		}
	}()
	NewTransport(p, net, map[int]string{0: "a"})
}
