package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// addRoute maps a destination world rank to a channel and next-hop node:
// the one-rail case of SetRails.
func (d *Device) addRoute(rank int, r Route) { d.SetRails(rank, []Route{r}) }

// pending returns the outstanding rendez-vous counts.
func (d *Device) pending() (sends, recvs int) { return len(d.rndvTx), len(d.rndvRx) }

// sendTerm emits a MAD_TERM_PKT to a neighbour's channel, terminating its
// polling loop.
func (d *Device) sendTerm(dst int) error {
	rt, ok := d.RouteTo(dst)
	if !ok {
		return fmt.Errorf("ch_mad: no route to rank %d", dst)
	}
	return d.sendHeaderOnly(rt, header{Type: PktTerm, SrcRank: d.rank, DstRank: dst})
}

// rig wires n ranks (one per node) with ch_mad devices over one or more
// networks, fully connected, routing over the first network by default.
type rig struct {
	s     *vtime.Scheduler
	procs []*marcel.Proc
	engs  []*adi.Engine
	devs  []*Device
	nets  []*netsim.Network
}

func newRig(t *testing.T, n int, paramSets ...netsim.Params) *rig {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(200 * vtime.Second))
	r := &rig{s: s}
	for _, p := range paramSets {
		r.nets = append(r.nets, netsim.NewNetwork(s, p.Network, p))
	}
	for i := 0; i < n; i++ {
		p := marcel.NewProc(s, fmt.Sprintf("n%d", i))
		eng := adi.NewEngine(p, i)
		dev := New(p, eng, i)
		inst := madeleine.New(p)
		for k, net := range r.nets {
			ch, err := inst.NewChannel(fmt.Sprintf("ch%d", k), net)
			if err != nil {
				t.Fatal(err)
			}
			dev.AddChannel(ch)
		}
		r.procs = append(r.procs, p)
		r.engs = append(r.engs, eng)
		r.devs = append(r.devs, dev)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r.devs[i].addRoute(j, Route{Channel: r.devs[i].Channels()[0], NextNode: fmt.Sprintf("n%d", j)})
		}
	}
	for i := 0; i < n; i++ {
		r.devs[i].Start()
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) sendReq(from, to, tag int, data []byte) *adi.SendReq {
	return &adi.SendReq{
		Env:  adi.Envelope{Src: from, Tag: tag, Context: 0, Len: len(data)},
		Dst:  to,
		Data: data,
		Done: vtime.NewEvent(r.s, "send"),
	}
}

func (r *rig) recvReq(src, tag, n int) *adi.RecvReq {
	return &adi.RecvReq{
		Src: src, Tag: tag, Context: 0,
		Buf:  make([]byte, n),
		Done: vtime.NewEvent(r.s, "recv"),
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 5)
	}
	return b
}

// exchange runs a single device-level message and validates integrity.
func exchange(t *testing.T, params netsim.Params, size int, preposted bool) {
	t.Helper()
	r := newRig(t, 2, params)
	payload := pattern(size)
	r.procs[0].Spawn("send", func() {
		sr := r.sendReq(0, 1, 11, payload)
		r.devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err != nil {
			t.Error(sr.Err)
		}
	})
	r.procs[1].Spawn("recv", func() {
		if !preposted {
			r.procs[1].Sleep(5 * vtime.Millisecond)
		}
		rr := r.recvReq(0, 11, size)
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
		if rr.Err != nil {
			t.Error(rr.Err)
		}
		if !bytes.Equal(rr.Buf, payload) {
			t.Errorf("size %d preposted %v: corrupted", size, preposted)
		}
		if rr.Status.Source != 0 || rr.Status.Tag != 11 || rr.Status.Len != size {
			t.Errorf("status %+v", rr.Status)
		}
	})
	r.run(t)
}

func TestEagerExpectedAndUnexpected(t *testing.T) {
	for _, params := range []netsim.Params{netsim.SCISISCI(), netsim.FastEthernetTCP(), netsim.MyrinetBIP()} {
		exchange(t, params, 0, true)
		exchange(t, params, 4, true)
		exchange(t, params, 4, false)
		exchange(t, params, 4000, true)
		exchange(t, params, 4000, false)
	}
}

func TestRendezvousExpectedAndUnexpected(t *testing.T) {
	for _, params := range []netsim.Params{netsim.SCISISCI(), netsim.FastEthernetTCP(), netsim.MyrinetBIP()} {
		big := params.SwitchPoint + 1
		exchange(t, params, big, true)
		exchange(t, params, big, false)
		exchange(t, params, 1<<20, true)
	}
}

func TestRendezvousBookkeepingDrained(t *testing.T) {
	r := newRig(t, 2, netsim.SCISISCI())
	payload := pattern(100000)
	r.procs[0].Spawn("send", func() {
		sr := r.sendReq(0, 1, 0, payload)
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.procs[1].Spawn("recv", func() {
		rr := r.recvReq(0, 0, len(payload))
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
	})
	r.run(t)
	for i, d := range r.devs {
		s, rc := d.pending()
		if s != 0 || rc != 0 {
			t.Errorf("dev %d: pending sends=%d recvs=%d after completion", i, s, rc)
		}
	}
	if r.devs[0].NRndv != 1 || r.devs[0].NEager != 0 {
		t.Errorf("mode counters: eager=%d rndv=%d", r.devs[0].NEager, r.devs[0].NRndv)
	}
}

func TestZeroByteIsSinglePacket(t *testing.T) {
	// §4.2.1: control-only messages have no body, avoiding the second
	// pack; a 0-byte MPI message is one wire packet.
	r := newRig(t, 2, netsim.SCISISCI())
	r.procs[0].Spawn("send", func() {
		sr := r.sendReq(0, 1, 0, nil)
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.procs[1].Spawn("recv", func() {
		rr := r.recvReq(0, 0, 0)
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
	})
	r.run(t)
	if got := r.nets[0].Stats.Packets; got != 1 {
		t.Fatalf("0-byte message used %d packets, want 1", got)
	}
}

func TestEagerBodyIsZeroCopySeparatePacket(t *testing.T) {
	// §4.2.2 split: an 8 KB eager body on SCI rides as its own
	// zero-copy packet next to the header packet.
	r := newRig(t, 2, netsim.SCISISCI())
	size := 8 << 10 // exactly the SCI switch point: still eager
	r.procs[0].Spawn("send", func() {
		sr := r.sendReq(0, 1, 0, pattern(size))
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.procs[1].Spawn("recv", func() {
		rr := r.recvReq(0, 0, size)
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
	})
	r.run(t)
	if got := r.nets[0].Stats.Packets; got != 2 {
		t.Fatalf("eager used %d packets, want 2 (head + body)", got)
	}
	if r.devs[0].NEager != 1 {
		t.Fatalf("mode counters: eager=%d", r.devs[0].NEager)
	}
}

func TestSwitchPointElection(t *testing.T) {
	mk := func(paramSets ...netsim.Params) *Device {
		s := vtime.New()
		p := marcel.NewProc(s, "n0")
		eng := adi.NewEngine(p, 0)
		d := New(p, eng, 0)
		inst := madeleine.New(p)
		for k, ps := range paramSets {
			net := netsim.NewNetwork(s, fmt.Sprintf("net%d", k), ps)
			ch, err := inst.NewChannel(fmt.Sprintf("ch%d", k), net)
			if err != nil {
				t.Fatal(err)
			}
			d.AddChannel(ch)
		}
		return d
	}
	// §4.2.2: SCI present -> 8 KB, even alongside Myrinet.
	if got := mk(netsim.MyrinetBIP(), netsim.SCISISCI(), netsim.FastEthernetTCP()).ElectSwitchPoint(); got != 8<<10 {
		t.Errorf("SCI+BIP+TCP elected %d, want 8K", got)
	}
	// No SCI: most performant network's switch point (Myrinet, 7 KB).
	if got := mk(netsim.FastEthernetTCP(), netsim.MyrinetBIP()).ElectSwitchPoint(); got != 7<<10 {
		t.Errorf("BIP+TCP elected %d, want 7K", got)
	}
	// TCP only.
	if got := mk(netsim.FastEthernetTCP()).ElectSwitchPoint(); got != 64<<10 {
		t.Errorf("TCP elected %d, want 64K", got)
	}
	// No channels at all: conservative default.
	if got := mk().ElectSwitchPoint(); got != 64<<10 {
		t.Errorf("empty elected %d, want 64K", got)
	}
}

func TestTruncationEagerAndRndv(t *testing.T) {
	for _, size := range []int{1000, 100000} {
		r := newRig(t, 2, netsim.SCISISCI())
		payload := pattern(size)
		r.procs[0].Spawn("send", func() {
			sr := r.sendReq(0, 1, 0, payload)
			r.devs[0].Send(sr)
			sr.Done.Wait()
		})
		r.procs[1].Spawn("recv", func() {
			rr := r.recvReq(0, 0, size/4)
			r.engs[1].PostRecv(rr)
			rr.Done.Wait()
			if !errors.Is(rr.Err, adi.ErrTruncate) {
				t.Errorf("size %d: err=%v, want truncate", size, rr.Err)
			}
			if !bytes.Equal(rr.Buf, payload[:size/4]) {
				t.Errorf("size %d: prefix corrupted", size)
			}
		})
		r.run(t)
	}
}

func TestNoRouteError(t *testing.T) {
	r := newRig(t, 2, netsim.SCISISCI())
	r.procs[0].Spawn("send", func() {
		sr := r.sendReq(0, 9, 0, []byte("x"))
		r.devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err == nil {
			t.Error("want error for unroutable destination")
		}
	})
	r.run(t)
}

func TestMonolithicEagerAblationCorrectness(t *testing.T) {
	// The X2 ablation still delivers correct data, just slower/padded.
	r := newRig(t, 2, netsim.SCISISCI())
	for _, d := range r.devs {
		d.MonolithicEager = true
	}
	size := 1000
	payload := pattern(size)
	r.procs[0].Spawn("send", func() {
		sr := r.sendReq(0, 1, 0, payload)
		r.devs[0].Send(sr)
		sr.Done.Wait()
	})
	r.procs[1].Spawn("recv", func() {
		rr := r.recvReq(0, 0, size)
		r.engs[1].PostRecv(rr)
		rr.Done.Wait()
		if !bytes.Equal(rr.Buf, payload) {
			t.Error("monolithic eager corrupted payload")
		}
	})
	r.run(t)
	// Padded wire: the body packet is switchPoint bytes, so total bytes
	// must exceed the split scheme's by a wide margin.
	if got := r.nets[0].Stats.Bytes; got < uint64(r.devs[0].SwitchPoint()) {
		t.Errorf("wire bytes %d; expected padded buffer >= %d", got, r.devs[0].SwitchPoint())
	}
}

func TestForwardingAcrossHeterogeneousNetworks(t *testing.T) {
	// §6 future-work extension: rank0 (SCI island) reaches rank2
	// (Myrinet island) through gateway rank1, for both transfer modes.
	s := vtime.New()
	s.SetDeadline(vtime.Time(200 * vtime.Second))
	sci := netsim.NewNetwork(s, "SCI", netsim.SCISISCI())
	myri := netsim.NewNetwork(s, "Myrinet", netsim.MyrinetBIP())

	procs := make([]*marcel.Proc, 3)
	engs := make([]*adi.Engine, 3)
	devs := make([]*Device, 3)
	for i := 0; i < 3; i++ {
		procs[i] = marcel.NewProc(s, fmt.Sprintf("n%d", i))
		engs[i] = adi.NewEngine(procs[i], i)
		devs[i] = New(procs[i], engs[i], i)
	}
	mk := func(i int, name string, net *netsim.Network) *madeleine.Channel {
		inst := madeleine.New(procs[i])
		ch, err := inst.NewChannel(name, net)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	// rank0: SCI only; rank1: both; rank2: Myrinet only.
	ch0 := mk(0, "sci", sci)
	devs[0].AddChannel(ch0)
	inst1 := madeleine.New(procs[1])
	ch1s, err := inst1.NewChannel("sci", sci)
	if err != nil {
		t.Fatal(err)
	}
	ch1m, err := inst1.NewChannel("myri", myri)
	if err != nil {
		t.Fatal(err)
	}
	devs[1].AddChannel(ch1s)
	devs[1].AddChannel(ch1m)
	ch2 := mk(2, "myri", myri)
	devs[2].AddChannel(ch2)

	devs[0].addRoute(1, Route{Channel: ch0, NextNode: "n1"})
	devs[0].addRoute(2, Route{Channel: ch0, NextNode: "n1"}) // via gateway
	devs[1].addRoute(0, Route{Channel: ch1s, NextNode: "n0"})
	devs[1].addRoute(2, Route{Channel: ch1m, NextNode: "n2"})
	devs[2].addRoute(1, Route{Channel: ch2, NextNode: "n1"})
	devs[2].addRoute(0, Route{Channel: ch2, NextNode: "n1"}) // via gateway
	for i := 0; i < 3; i++ {
		devs[i].Start()
	}

	mkSend := func(from, to, tag int, data []byte) *adi.SendReq {
		return &adi.SendReq{
			Env: adi.Envelope{Src: from, Tag: tag, Context: 0, Len: len(data)},
			Dst: to, Data: data, Done: vtime.NewEvent(s, "send"),
		}
	}
	small := pattern(64)
	big := pattern(100000) // > 8K elected switch point: rendez-vous through the gateway
	procs[0].Spawn("send", func() {
		sr := mkSend(0, 2, 1, small)
		devs[0].Send(sr)
		sr.Done.Wait()
		sr2 := mkSend(0, 2, 2, big)
		devs[0].Send(sr2)
		sr2.Done.Wait()
		if sr.Err != nil || sr2.Err != nil {
			t.Error(sr.Err, sr2.Err)
		}
	})
	procs[2].Spawn("recv", func() {
		rr := &adi.RecvReq{Src: 0, Tag: 1, Context: 0, Buf: make([]byte, 64), Done: vtime.NewEvent(s, "r")}
		engs[2].PostRecv(rr)
		rr.Done.Wait()
		if !bytes.Equal(rr.Buf, small) {
			t.Error("forwarded eager corrupted")
		}
		rr2 := &adi.RecvReq{Src: 0, Tag: 2, Context: 0, Buf: make([]byte, len(big)), Done: vtime.NewEvent(s, "r2")}
		engs[2].PostRecv(rr2)
		rr2.Done.Wait()
		if !bytes.Equal(rr2.Buf, big) {
			t.Error("forwarded rendez-vous corrupted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if devs[1].NForwarded == 0 {
		t.Fatal("gateway forwarded nothing")
	}
}

// devPingPong measures one-way latency at the device level (what Table 2
// reports as ch_mad latency).
func devPingPong(t *testing.T, params netsim.Params, size, iters int) vtime.Duration {
	t.Helper()
	r := newRig(t, 2, params)
	var elapsed vtime.Duration
	roundtrip := func(me, peer int) {
		sr := r.sendReq(me, peer, 0, pattern(size))
		r.devs[me].Send(sr)
		sr.Done.Wait()
		rr := r.recvReq(peer, 0, size)
		r.engs[me].PostRecv(rr)
		rr.Done.Wait()
	}
	r.procs[0].Spawn("ping", func() {
		start := r.s.Now()
		for i := 0; i < iters; i++ {
			roundtrip(0, 1)
		}
		elapsed = r.s.Now().Sub(start)
	})
	r.procs[1].Spawn("pong", func() {
		for i := 0; i < iters; i++ {
			rr := r.recvReq(0, 0, size)
			r.engs[1].PostRecv(rr)
			rr.Done.Wait()
			sr := r.sendReq(1, 0, 0, pattern(size))
			r.devs[1].Send(sr)
			sr.Done.Wait()
		}
	})
	r.run(t)
	return elapsed / vtime.Duration(2*iters)
}

func TestHeaderRoundtrip(t *testing.T) {
	h := header{Type: PktSendOK, SrcRank: 3, DstRank: 9, Tag: -1, Context: 12, Len: 1 << 20, ReqID: 77, SyncID: 99}
	got, err := decodeHeader(h.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip: %+v != %+v", got, h)
	}
	if _, err := decodeHeader([]byte{1, 2}); err == nil {
		t.Fatal("short header accepted")
	}
	for _, k := range []PktType{PktShort, PktRequest, PktSendOK, PktRndv, PktTerm, 99} {
		if k.String() == "" {
			t.Fatal("empty packet name")
		}
	}
}

func TestShutdownIdempotent(t *testing.T) {
	r := newRig(t, 2, netsim.SCISISCI())
	r.procs[0].Spawn("main", func() {
		r.devs[0].Shutdown()
		r.devs[0].Shutdown()
		// Channels stay open after shutdown (gateways may still forward):
		// an orderly MAD_TERM_PKT can still be emitted and terminates the
		// peer's polling loop.
		if err := r.devs[0].sendTerm(1); err != nil {
			t.Errorf("sendTerm after shutdown: %v", err)
		}
		if err := r.devs[0].sendTerm(42); err == nil {
			t.Error("sendTerm to unroutable rank should fail")
		}
		ch := r.devs[0].Channels()[0]
		ch.Close()
		if _, err := ch.BeginPacking("n1"); !errors.Is(err, madeleine.ErrChannelClosed) {
			t.Errorf("after close: %v", err)
		}
	})
	r.run(t)
	if r.devs[0].Name() != "ch_mad" || r.devs[0].rank != 0 {
		t.Fatal("identity accessors broken")
	}
}
