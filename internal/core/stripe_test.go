package core

// Tests of the multi-path transport: striping a rendez-vous body across
// edge-disjoint rails, the bounded store-and-forward queue (credit
// window), busy-nack admission control with sender retry, and the
// drop-reason accounting that tells admission drops from routing holes.

import (
	"bytes"
	"fmt"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// wireRig builds n ch_mad devices attached to the given networks but does
// NOT install routes or start them — tests wire routes (and relay
// windows) explicitly, then call start().
type wireRig struct {
	s     *vtime.Scheduler
	procs []*marcel.Proc
	engs  []*adi.Engine
	devs  []*Device
	chans [][]*madeleine.Channel // [rank][net index]
}

func newWireRig(t testing.TB, n int, paramSets ...netsim.Params) *wireRig {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(200 * vtime.Second))
	r := &wireRig{s: s}
	var nets []*netsim.Network
	for k, p := range paramSets {
		nets = append(nets, netsim.NewNetwork(s, fmt.Sprintf("net%d", k), p))
	}
	for i := 0; i < n; i++ {
		p := marcel.NewProc(s, fmt.Sprintf("n%d", i))
		eng := adi.NewEngine(p, i)
		dev := New(p, eng, i)
		inst := madeleine.New(p)
		var chs []*madeleine.Channel
		for k, net := range nets {
			ch, err := inst.NewChannel(fmt.Sprintf("ch%d", k), net)
			if err != nil {
				t.Fatal(err)
			}
			dev.AddChannel(ch)
			chs = append(chs, ch)
		}
		r.procs = append(r.procs, p)
		r.engs = append(r.engs, eng)
		r.devs = append(r.devs, dev)
		r.chans = append(r.chans, chs)
	}
	return r
}

func (r *wireRig) start() {
	for _, d := range r.devs {
		d.Start()
	}
}

func (r *wireRig) run(t testing.TB) {
	t.Helper()
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// diamondRig wires the minimal two-rail topology: n0 reaches n3 through
// either gateway n1 or gateway n2 (net0 on the left of the diamond, net1
// on the right), with both rails installed on n0.
func diamondRig(t *testing.T, seg int) *wireRig {
	t.Helper()
	r := newWireRig(t, 4, netsim.SCISISCI(), netsim.MyrinetBIP())
	left := func(i int) *madeleine.Channel { return r.chans[i][0] }
	right := func(i int) *madeleine.Channel { return r.chans[i][1] }
	r.devs[0].addRoute(1, Route{Channel: left(0), NextNode: "n1"})
	r.devs[0].addRoute(2, Route{Channel: left(0), NextNode: "n2"})
	r.devs[0].SetRails(3, []Route{
		{Channel: left(0), NextNode: "n1", Hops: 2, SegBytes: seg, Cost: 1e-3},
		{Channel: left(0), NextNode: "n2", Hops: 2, SegBytes: seg, Cost: 1e-3},
	})
	for _, gw := range []int{1, 2} {
		r.devs[gw].addRoute(0, Route{Channel: left(gw), NextNode: "n0"})
		r.devs[gw].addRoute(3, Route{Channel: right(gw), NextNode: "n3"})
	}
	r.devs[3].addRoute(0, Route{Channel: right(3), NextNode: "n1", Hops: 2})
	r.devs[3].addRoute(1, Route{Channel: right(3), NextNode: "n1"})
	r.devs[3].addRoute(2, Route{Channel: right(3), NextNode: "n2"})
	return r
}

// TestStripedRelaySplitsAcrossRails: a striped rendez-vous body crosses
// BOTH gateways of the diamond (roughly half the bytes each, since the
// rails cost the same), arrives intact, and the single-rail ablation
// keeps everything on the primary gateway.
func TestStripedRelaySplitsAcrossRails(t *testing.T) {
	const size = 96 << 10
	run := func(striping bool) (*wireRig, []byte) {
		r := diamondRig(t, 8<<10)
		r.devs[0].RelayStriping = striping
		r.start()
		payload := pattern(size)
		var got []byte
		r.procs[0].Spawn("send", func() {
			sr := &adi.SendReq{
				Env: adi.Envelope{Src: 0, Tag: 7, Context: 0, Len: size},
				Dst: 3, Data: payload, Done: vtime.NewEvent(r.s, "send"),
			}
			r.devs[0].Send(sr)
			sr.Done.Wait()
			if sr.Err != nil {
				t.Error(sr.Err)
			}
		})
		r.procs[3].Spawn("recv", func() {
			rr := &adi.RecvReq{
				Src: 0, Tag: 7, Context: 0,
				Buf:  make([]byte, size),
				Done: vtime.NewEvent(r.s, "recv"),
			}
			r.engs[3].PostRecv(rr)
			rr.Done.Wait()
			if rr.Err != nil {
				t.Error(rr.Err)
			}
			got = rr.Buf
		})
		r.run(t)
		if !bytes.Equal(got, payload) {
			t.Fatalf("striping=%v: payload corrupted", striping)
		}
		return r, got
	}

	striped, _ := run(true)
	b1, b2 := striped.devs[1].RelayBytes, striped.devs[2].RelayBytes
	if b1 == 0 || b2 == 0 {
		t.Fatalf("striping used one rail only: gw1=%d gw2=%d bytes", b1, b2)
	}
	total := b1 + b2
	if total < size {
		t.Fatalf("relayed %d bytes, want >= %d", total, size)
	}
	// Equal-cost rails: neither carries more than ~2/3 of the body.
	if b1 > 2*total/3 || b2 > 2*total/3 {
		t.Errorf("unbalanced stripe: gw1=%d gw2=%d", b1, b2)
	}

	single, _ := run(false)
	if single.devs[2].NForwarded != 0 {
		t.Errorf("single-rail ablation still used the second gateway (%d msgs)",
			single.devs[2].NForwarded)
	}
	if single.devs[1].RelayBytes < size {
		t.Errorf("single rail relayed %d bytes, want >= %d", single.devs[1].RelayBytes, size)
	}
}

// TestRailForBudget: a relaying gateway honors a stripe's PathID only
// within the segment's remaining hop budget — a rail longer than the
// planned remainder (a local detour the sender's rail never meant) is
// rejected in favor of one that fits, and no rail may hand the segment
// back to the node it came from.
func TestRailForBudget(t *testing.T) {
	r := newWireRig(t, 4, netsim.MyrinetBIP())
	d := r.devs[1]
	direct := Route{Channel: r.chans[1][0], NextNode: "n3", Hops: 1}
	detour := Route{Channel: r.chans[1][0], NextNode: "n2", Hops: 2}
	d.SetRails(3, []Route{direct, detour})
	// One hop of budget left: the PathID-named detour does not fit.
	if rt, ok := d.railFor(header{DstRank: 3, PathID: 1, Budget: 1}, "n0"); !ok || rt.NextNode != "n3" {
		t.Fatalf("budget 1 chose %+v, want the direct hop", rt)
	}
	// Budget to spare: the PathID rail is honored.
	if rt, _ := d.railFor(header{DstRank: 3, PathID: 1, Budget: 2}, "n0"); rt.NextNode != "n2" {
		t.Fatalf("budget 2 chose %+v, want the PathID rail", rt)
	}
	// No budget info (plain relayed traffic): primary routing.
	if rt, _ := d.railFor(header{DstRank: 3}, "n0"); rt.NextNode != "n3" {
		t.Fatalf("no budget chose %+v, want primary", rt)
	}
	// Never back to the sender, even when the PathID rail points there.
	if rt, _ := d.railFor(header{DstRank: 3, PathID: 1, Budget: 9}, "n2"); rt.NextNode != "n3" {
		t.Fatalf("backtrack guard chose %+v", rt)
	}
}

// chainRig wires n0 --sci-- n1(gateway) --tcp-- n2 with the gateway's
// relay window set to w. seg is the relay pipelining segment of the
// multi-hop route (0 = whole-body store-and-forward).
func chainRig(t testing.TB, w, seg int) *wireRig {
	t.Helper()
	r := newWireRig(t, 3, netsim.SCISISCI(), netsim.FastEthernetTCP())
	sci := func(i int) *madeleine.Channel { return r.chans[i][0] }
	tcp := func(i int) *madeleine.Channel { return r.chans[i][1] }
	r.devs[0].addRoute(1, Route{Channel: sci(0), NextNode: "n1"})
	r.devs[0].addRoute(2, Route{Channel: sci(0), NextNode: "n1", Hops: 2, SegBytes: seg})
	r.devs[1].addRoute(0, Route{Channel: sci(1), NextNode: "n0"})
	r.devs[1].addRoute(2, Route{Channel: tcp(1), NextNode: "n2"})
	r.devs[2].addRoute(1, Route{Channel: tcp(2), NextNode: "n1"})
	r.devs[2].addRoute(0, Route{Channel: tcp(2), NextNode: "n1", Hops: 2})
	r.devs[1].RelayWindow = w
	return r
}

// TestRelayWindowBoundsQueue: with a credit window of 2, a long segment
// train relays through the gateway with its store-and-forward queue never
// exceeding 2, some segments deferred, and the payload intact — the
// bounded-queue acceptance criterion at device level.
func TestRelayWindowBoundsQueue(t *testing.T) {
	const size = 256 << 10
	r := chainRig(t, 2, 4<<10)
	r.start()
	payload := pattern(size)
	r.procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 9, Context: 0, Len: size},
			Dst: 2, Data: payload, Done: vtime.NewEvent(r.s, "send"),
		}
		r.devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err != nil {
			t.Error(sr.Err)
		}
	})
	r.procs[2].Spawn("recv", func() {
		rr := &adi.RecvReq{
			Src: 0, Tag: 9, Context: 0,
			Buf:  make([]byte, size),
			Done: vtime.NewEvent(r.s, "recv"),
		}
		r.engs[2].PostRecv(rr)
		rr.Done.Wait()
		if rr.Err != nil {
			t.Error(rr.Err)
		}
		if !bytes.Equal(rr.Buf, payload) {
			t.Error("payload corrupted through the bounded relay")
		}
	})
	r.run(t)
	gw := r.devs[1]
	if gw.RelayQueuePeak > 2 {
		t.Errorf("relay queue peak %d exceeds the window of 2", gw.RelayQueuePeak)
	}
	if gw.NRelayDeferred == 0 {
		t.Error("a 64-segment train through a window of 2 should defer")
	}
	if gw.NRelayDrops != 0 {
		t.Errorf("bounded relay dropped %d messages (lossless mode)", gw.NRelayDrops)
	}
}

// TestRelayBusyNackRetry: while a window-1 gateway is occupied relaying
// one rendez-vous body, a second rendez-vous request through it is
// busy-nacked; the sender backs off, retries, and both transfers complete
// intact — closed-loop admission control.
func TestRelayBusyNackRetry(t *testing.T) {
	const size = 128 << 10
	r := chainRig(t, 1, 0) // whole-body store-and-forward holds the credit long
	r.start()
	p1, p2 := pattern(size), pattern(size/2)
	send := func(tag int, data []byte, after vtime.Duration) {
		r.procs[0].Spawn(fmt.Sprintf("send%d", tag), func() {
			if after > 0 {
				r.procs[0].Sleep(after)
			}
			sr := &adi.SendReq{
				Env: adi.Envelope{Src: 0, Tag: tag, Context: 0, Len: len(data)},
				Dst: 2, Data: data, Done: vtime.NewEvent(r.s, "send"),
			}
			r.devs[0].Send(sr)
			sr.Done.Wait()
			if sr.Err != nil {
				t.Errorf("tag %d: %v", tag, sr.Err)
			}
		})
	}
	recv := func(tag int, want []byte) {
		r.procs[2].Spawn(fmt.Sprintf("recv%d", tag), func() {
			rr := &adi.RecvReq{
				Src: 0, Tag: tag, Context: 0,
				Buf:  make([]byte, len(want)),
				Done: vtime.NewEvent(r.s, "recv"),
			}
			r.engs[2].PostRecv(rr)
			rr.Done.Wait()
			if rr.Err != nil {
				t.Errorf("tag %d: %v", tag, rr.Err)
			}
			if !bytes.Equal(rr.Buf, want) {
				t.Errorf("tag %d: corrupted", tag)
			}
		})
	}
	send(1, p1, 0)
	recv(1, p1)
	// The second request reaches the gateway while transfer 1's body is
	// being re-emitted on the slow TCP hop.
	send(2, p2, 3*vtime.Millisecond)
	recv(2, p2)
	r.run(t)
	if r.devs[1].NRelayBusy == 0 {
		t.Error("gateway never busy-nacked despite a held window-1 credit")
	}
	if r.devs[0].NRndvRetries == 0 {
		t.Error("sender never retried a busy-nacked request")
	}
	if r.devs[1].NRelayDrops != 0 {
		t.Errorf("admission control dropped %d messages", r.devs[1].NRelayDrops)
	}
}
