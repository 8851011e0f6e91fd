// Package chp4 implements the ch_p4 baseline: MPICH's classic TCP device,
// built as the paper describes MPICH's portable path (§2.2.1) — the
// generic ADI short/eager/rendez-vous protocol engine running over the
// five-function channel interface, here bound to the simulated
// TCP/Fast-Ethernet transport.
//
// ch_p4's defining costs versus ch_mad (Fig. 6): every payload crosses a
// socket buffer on both sides (one extra copy each way, capping bandwidth
// near 10 MB/s), and the device adds its own per-message control overhead.
package chp4

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// p4Kind discriminates ch_p4's packets on the simulated socket stream.
// A named type so the delivery dispatch is provably exhaustive
// (madlint/pktswitch).
type p4Kind int

// Packet kinds on the simulated socket stream.
const (
	pktCtrl p4Kind = 1
	pktBulk p4Kind = 2
)

// CtlOverhead is ch_p4's per-control-message bookkeeping cost on each
// side (listener dispatch, queue locks), beyond the raw TCP stack cost.
// Calibrated so ch_p4's small-message latency sits slightly above
// ch_mad's, as in Fig. 6(a) beyond 256 bytes.
const CtlOverhead = 16 * vtime.Microsecond

// Transport is the per-process TCP channel-interface implementation.
type Transport struct {
	proc   *marcel.Proc
	ep     *netsim.Endpoint
	params netsim.Params

	rankOf map[string]int // node -> rank
	nodeOf map[int]string // rank -> node

	ctrl *vtime.Queue[ctrlMsg]
	bulk map[int]*vtime.Queue[*netsim.Buf]
	held *netsim.Buf // the control packet RecvControl returned last
}

// ctrlMsg and the bulk queues hold the socket-buffer copy the sender made
// in a wire buffer of the network's list; the receive calls release it.
type ctrlMsg struct {
	src int
	pkt *netsim.Buf
}

// NewTransport attaches a process to the TCP network. ranks maps world
// rank to node name for every peer (including self).
func NewTransport(p *marcel.Proc, net *netsim.Network, ranks map[int]string) *Transport {
	t := &Transport{
		proc:   p,
		params: net.Params,
		rankOf: make(map[string]int),
		nodeOf: make(map[int]string),
		ctrl:   vtime.NewQueue[ctrlMsg](p.S, p.Name+".p4.ctrl"),
		bulk:   make(map[int]*vtime.Queue[*netsim.Buf]),
	}
	for r, node := range ranks {
		t.rankOf[node] = r
		t.nodeOf[r] = node
	}
	ep := net.Attach(p.Name)
	if ep.OnDeliver != nil {
		panic(fmt.Sprintf("chp4: node %s already attached to %s", p.Name, net.Name))
	}
	ep.OnDeliver = t.deliver
	t.ep = ep
	return t
}

func (t *Transport) deliver(pkt *netsim.Packet) {
	src, ok := t.rankOf[pkt.Src]
	if !ok {
		panic(fmt.Sprintf("chp4[%s]: packet from unknown node %q", t.proc.Name, pkt.Src))
	}
	switch p4Kind(pkt.Kind) {
	case pktCtrl:
		t.ctrl.Push(ctrlMsg{src: src, pkt: pkt.Meta.(*netsim.Buf)})
	case pktBulk:
		t.bulkFrom(src).Push(pkt.Meta.(*netsim.Buf))
	default:
		// Same contextual format as ch_mad's dispatch panic: who, which
		// kind, from which rank/node — diagnosable at 1000 ranks.
		panic(fmt.Sprintf("chp4[%s]: unknown packet kind %d from rank %d (%s)",
			t.proc.Name, pkt.Kind, src, pkt.Src))
	}
}

func (t *Transport) bulkFrom(src int) *vtime.Queue[*netsim.Buf] {
	if q, ok := t.bulk[src]; ok {
		return q
	}
	q := vtime.NewQueue[*netsim.Buf](t.proc.S, fmt.Sprintf("%s.p4.bulk.%d", t.proc.Name, src))
	t.bulk[src] = q
	return q
}

// socketCopy is the sender's copy into the socket buffer (charged by the
// caller): a wire buffer of the network's list, released by the receiver.
func (t *Transport) socketCopy(data []byte) *netsim.Buf {
	cp := t.ep.Net.Bufs().Get(len(data))
	copy(cp.B, data)
	return cp
}

// SendControl implements adi.ChannelDevice: control packets cross the
// socket with a kernel copy plus ch_p4's own bookkeeping.
func (t *Transport) SendControl(dst int, pkt []byte) {
	node, ok := t.nodeOf[dst]
	if !ok {
		panic(fmt.Sprintf("chp4: no node for rank %d", dst))
	}
	t.proc.Charge(CtlOverhead)
	t.proc.Charge(t.params.SendOverhead)
	t.proc.Charge(t.params.CopyTime(len(pkt))) // into the socket buffer
	cp := t.socketCopy(pkt)
	if err := t.ep.Send(&netsim.Packet{Dst: node, Kind: int(pktCtrl), Header: cp.B, Meta: cp}); err != nil {
		panic(fmt.Sprintf("chp4[%s]: control to rank %d (%s): %v", t.proc.Name, dst, node, err))
	}
}

// SendBulk implements adi.ChannelDevice: bulk data also crosses the
// socket buffer — this is the copy ch_mad's rendez-vous avoids.
func (t *Transport) SendBulk(dst int, data []byte) {
	node := t.nodeOf[dst]
	t.proc.Charge(t.params.SendOverhead)
	t.proc.Charge(t.params.CopyTime(len(data)))
	cp := t.socketCopy(data)
	pkt := &netsim.Packet{Dst: node, Kind: int(pktBulk), Body: cp.B, Meta: cp}
	if err := t.ep.Send(pkt); err != nil {
		panic(fmt.Sprintf("chp4[%s]: bulk to rank %d (%s): %v", t.proc.Name, dst, node, err))
	}
	// Blocking socket semantics: the call returns when the kernel has
	// consumed the buffer (injection complete).
	injected := pkt.ArriveAt.Add(-t.params.WireLatency)
	if injected > t.proc.S.Now() {
		t.proc.S.Sleep(injected.Sub(t.proc.S.Now()))
	}
}

// RecvControl implements adi.ChannelDevice: blocking select-style wait.
// The previous call's packet goes home here.
func (t *Transport) RecvControl() (int, []byte) {
	if t.held != nil {
		t.held.Release()
	}
	spec := marcel.PollSpec{IdleCost: t.params.PollCost, Interval: t.params.PollInterval}
	m := marcel.WaitPoll(t.proc, t.ctrl, spec)
	t.held = m.pkt
	t.proc.Charge(CtlOverhead)
	t.proc.Charge(t.params.RecvOverhead)
	t.proc.Charge(t.params.CopyTime(len(m.pkt.B)))
	return m.src, m.pkt.B
}

// RecvBulk implements adi.ChannelDevice: drain the stream into dst with
// the receive-side socket copy.
func (t *Transport) RecvBulk(src int, dst []byte) {
	data := t.bulkFrom(src).Pop()
	if len(data.B) != len(dst) {
		panic(fmt.Sprintf("chp4[%s]: bulk from rank %d of %d bytes, expected %d",
			t.proc.Name, src, len(data.B), len(dst)))
	}
	t.proc.Charge(t.params.RecvOverhead)
	t.proc.Charge(t.params.CopyTime(len(dst)))
	copy(dst, data.B)
	data.Release()
}

// CopyCost implements adi.ChannelDevice.
func (t *Transport) CopyCost(n int) vtime.Duration { return t.params.CopyTime(n) }

// Close implements adi.ChannelDevice.
func (t *Transport) Close() {}

// New builds the complete ch_p4 device (protocol engine + TCP transport)
// for one process. Per MPICH defaults, short messages ride in the control
// packet up to 1 KB and rendez-vous starts at the TCP switch point.
func New(p *marcel.Proc, eng *adi.Engine, net *netsim.Network, ranks map[int]string) *adi.ProtoDevice {
	tr := NewTransport(p, net, ranks)
	return adi.NewProtoDevice("ch_p4", eng, tr, adi.ProtoConfig{
		ShortLimit:    1 << 10,
		RndvThreshold: tr.params.SwitchPoint,
	})
}

var _ adi.ChannelDevice = (*Transport)(nil)
