package madeleine

import (
	"fmt"
	"slices"

	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// wireKind discriminates Madeleine's packets on the simulated wire
// (netsim.Packet.Kind is device-defined; this names our values). A named
// type so the delivery dispatch is provably exhaustive (madlint/pktswitch).
type wireKind int

// Packet kinds on the simulated wire.
const (
	pktHead wireKind = 1 // descriptor table + aggregated express/small-cheaper data
	pktBody wireKind = 2 // one standalone block, shipped zero-copy
)

// Instance is the per-process Madeleine library state. One instance per
// simulated process (MPI rank).
type Instance struct {
	P        *marcel.Proc
	channels map[string]*Channel
}

// New creates a Madeleine instance for proc.
func New(p *marcel.Proc) *Instance {
	return &Instance{P: p, channels: make(map[string]*Channel)}
}

// Channel is a closed communication world bound to one network protocol
// and adapter (§3.1): "much like an MPI communicator". In-order delivery
// is guaranteed per point-to-point connection within the channel.
type Channel struct {
	Inst   *Instance
	Name   string
	Net    *netsim.Network
	Params netsim.Params

	ep       *netsim.Endpoint
	conns    map[string]*Connection
	incoming *vtime.Queue[*Connection] // connections with a pending head, FIFO by arrival
	closed   bool

	// Messages counts fully received messages (introspection/tests).
	Messages uint64
}

// Connection virtualizes a reliable in-order point-to-point link between
// two processes inside a channel (§3.1).
type Connection struct {
	Ch     *Channel
	Remote string

	heads  *vtime.Queue[*netsim.Packet]
	bodies *vtime.Queue[*netsim.Packet]

	// sendLock serializes concurrent senders (Isend temporary threads,
	// rendez-vous control threads) onto the single outgoing message
	// slot; FIFO, in virtual time.
	sendLock *vtime.Sem

	// The connection's one outgoing and one incoming message record, reused
	// by every message (see the package comment for when bodies may be).
	out    outMessage
	in     inMessage
	outSeq uint32

	// Body packets put on the wire toward Remote and body packets of Remote
	// consumed here. A body number means the same packet on both sides as
	// long as none was lost, which is what lets a sender land a body in the
	// memory a reader designated (landing); want is that memory, set only
	// while an Unpack is parked in bodies.Pop.
	bodiesOut, bodiesIn uint64
	want                []byte
}

// NewChannel binds a channel to a network, attaching this process's
// endpoint. A process may open at most one channel per network (one
// channel maps to one protocol + adapter, per the paper's configuration).
func (inst *Instance) NewChannel(name string, net *netsim.Network) (*Channel, error) {
	if _, dup := inst.channels[name]; dup {
		return nil, fmt.Errorf("madeleine: channel %q already exists on %s", name, inst.P.Name)
	}
	ep := net.Attach(inst.P.Name)
	if ep.OnDeliver != nil {
		return nil, fmt.Errorf("madeleine: process %s already has a channel on network %q", inst.P.Name, net.Name)
	}
	ch := &Channel{
		Inst:     inst,
		Name:     name,
		Net:      net,
		Params:   net.Params,
		ep:       ep,
		conns:    make(map[string]*Connection),
		incoming: vtime.NewQueue[*Connection](inst.P.S, name+".incoming"),
	}
	ep.OnDeliver = ch.deliver
	ep.Landing = ch.landing
	inst.channels[name] = ch
	return ch, nil
}

// deliver runs in scheduler context at each packet arrival: route the
// packet to its connection and, for message heads, enqueue the connection
// for BeginUnpacking pickup.
func (ch *Channel) deliver(pkt *netsim.Packet) {
	conn := ch.connFor(pkt.Src)
	switch wireKind(pkt.Kind) {
	case pktHead:
		conn.heads.Push(pkt)
		ch.incoming.Push(conn)
	case pktBody:
		conn.bodies.Push(pkt)
	default:
		// Same contextual format as ch_mad's dispatch panic: who, on which
		// channel, which kind, from where — diagnosable at 1000 ranks.
		panic(fmt.Sprintf("madeleine[%s]: channel %q: unknown packet kind %d from %s",
			ch.Inst.P.Name, ch.Name, pkt.Kind, pkt.Src))
	}
}

func (ch *Channel) connFor(remote string) *Connection {
	if c, ok := ch.conns[remote]; ok {
		return c
	}
	c := &Connection{
		Ch:       ch,
		Remote:   remote,
		heads:    vtime.NewQueue[*netsim.Packet](ch.Inst.P.S, ch.Name+"->"+remote+".heads"),
		bodies:   vtime.NewQueue[*netsim.Packet](ch.Inst.P.S, ch.Name+"->"+remote+".bodies"),
		sendLock: vtime.NewSem(ch.Inst.P.S, ch.Name+"->"+remote+".send", 1),
	}
	ch.conns[remote] = c
	return c
}

// PollSpec returns the channel's Marcel polling discipline.
func (ch *Channel) PollSpec() marcel.PollSpec {
	return marcel.PollSpec{IdleCost: ch.Params.PollCost, Interval: ch.Params.PollInterval}
}

// Close marks the channel closed; subsequent BeginPacking fails.
func (ch *Channel) Close() { ch.closed = true }

// BeginPacking starts building a message toward remote (§3.2,
// mad_begin_packing). At most one outgoing message per connection is
// under construction at a time; concurrent senders queue FIFO on the
// connection's send lock until the current message's EndPacking.
func (ch *Channel) BeginPacking(remote string) (*Connection, error) {
	if ch.closed {
		return nil, ErrChannelClosed
	}
	if remote == ch.Inst.P.Name {
		return nil, fmt.Errorf("madeleine: self-connection on channel %q (use ch_self)", ch.Name)
	}
	conn := ch.connFor(remote)
	conn.sendLock.Acquire()
	if ch.closed { // may have closed while we queued
		conn.sendLock.Release()
		return nil, ErrChannelClosed
	}
	if conn.out.open {
		conn.sendLock.Release()
		return nil, ErrAlreadyPacking
	}
	conn.outSeq++
	conn.out.begin(conn.outSeq)
	return conn, nil
}

// Pack appends one data block to the message under construction (§3.2,
// mad_pack). A block that travels as its own body packet is not copied: the
// message borrows data, which — Madeleine's own SendLater/SendCheaper
// contract — stays untouched until EndPacking returns, and EndPacking does
// not return before somebody has the bytes (see settle). A block that rides
// in the head packet (EXPRESS, SendSafer, up to AggLimit bytes) is copied
// into the aggregation area here, a real copy charged at the driver's copy
// bandwidth, and data is the caller's again when Pack returns.
//
// Every pack operation beyond the first charges the network's extra-pack
// cost (half here, half at the matching Unpack), reproducing the overhead
// decomposition of §5.2–§5.4.
func (c *Connection) Pack(data []byte, sm SendMode, rm RecvMode) error {
	return c.pack(data, len(data), nil, sm, rm)
}

// PackExpress packs an n-byte EXPRESS block (SendCheaper) that the caller
// writes straight into the head's aggregation area, instead of handing
// Pack bytes to copy there: it returns the block's n bytes, the caller's to
// fill before it packs or blocks again. Placement and charges are Pack's.
func (c *Connection) PackExpress(n int) ([]byte, error) {
	if err := c.pack(nil, n, nil, SendCheaper, ReceiveExpress); err != nil {
		return nil, err
	}
	return c.out.agg[len(c.out.agg)-n:], nil
}

// PackOwned appends the block held in buf, a wire buffer the message takes
// over (also when it fails): a standalone block carries buf to whoever
// unpacks it, a block that rides in the head packet sends it home at once.
// Placement and charges are Pack's.
func (c *Connection) PackOwned(buf *netsim.Buf, sm SendMode, rm RecvMode) error {
	return c.pack(buf.B, len(buf.B), buf, sm, rm)
}

func (c *Connection) pack(data []byte, n int, owned *netsim.Buf, sm SendMode, rm RecvMode) error {
	m := &c.out
	if !m.open {
		if owned != nil {
			owned.Release()
		}
		return ErrNotPacking
	}
	p := &c.Ch.Params
	proc := c.Ch.Inst.P

	m.packs++
	if m.packs > 1 {
		proc.Charge(vtime.Duration(p.ExtraPackCost) / 2)
	}
	m.total += n

	d := blockDesc{place: placeBody, sendMode: sm, recvMode: rm, length: uint32(n)}
	switch {
	case rm == ReceiveExpress || sm == SendSafer || n <= p.AggLimit:
		d.place = placeAgg
		proc.Charge(p.CopyTime(n))
		m.agg = slices.Grow(m.agg, n)[:len(m.agg)+n]
		copy(m.agg[len(m.agg)-n:], data)
		if owned != nil {
			owned.Release()
		}
	default:
		m.addBody(data, owned)
	}
	m.blocks = append(m.blocks, d)
	return nil
}

// EndPacking finalizes and transmits the message (§3.2, mad_end_packing).
// It blocks (in virtual time) until every packet has been injected on the
// wire, i.e. until the application may safely reuse SendLater/SendCheaper
// buffers — matching Madeleine's blocking primitives — and on the host it
// makes that true: every body still lent at that instant is settled. When
// the network refuses a packet the message ends there with the error: the
// bodies already on the wire are settled, the owned ones that are not go
// home, and nothing borrowed is kept.
func (c *Connection) EndPacking() error {
	m := &c.out
	if !m.open {
		return ErrNotPacking
	}
	m.open = false
	p := &c.Ch.Params
	proc := c.Ch.Inst.P
	s := proc.S

	if p.LargeMsgLimit > 0 && m.total > p.LargeMsgLimit {
		proc.Charge(p.LargeMsgPenalty)
	}

	// Head packet: descriptor table + aggregated data.
	proc.Charge(p.SendOverhead)
	head := c.Ch.Net.NewPacket()
	head.Dst, head.Kind = c.Remote, int(pktHead)
	head.Header = appendHead(head.Header, m.seq, m.blocks, m.agg)
	err := c.Ch.ep.Send(head)
	last := head.ArriveAt
	if err != nil {
		head.Release() // refused: nobody else has it
	}

	// Body packets, in block order, pipelined behind the head.
	sent := 0
	for err == nil && sent < len(m.bodies) {
		proc.Charge(p.SendOverhead)
		b := &m.bodies[sent]
		b.pkt.Dst, b.pkt.Kind, b.pkt.Meta = c.Remote, int(pktBody), b
		if err = c.Ch.ep.Send(&b.pkt); err == nil {
			last = b.pkt.ArriveAt
			sent++
		}
	}

	// Block until the wire has consumed our buffers: the last packet's
	// injection completes one wire latency before its arrival.
	if injected := last.Add(-p.WireLatency); err == nil && injected > s.Now() {
		s.Sleep(injected.Sub(s.Now()))
	}
	// The send lock is still held, so the bodies of this message take the
	// connection's next numbers in the order they went on the wire.
	for i := range m.bodies {
		if b := &m.bodies[i]; i < sent {
			c.settle(b, c.bodiesOut)
			c.bodiesOut++
		} else if b.buf != nil {
			b.buf.Release()
		}
	}
	c.sendLock.Release()
	return err
}

// settle ends the loan of a body that is on the wire, at the instant its
// sender is about to get its memory back. A body the receiver has popped
// already was copied from the sender's bytes by that Unpack or Take, and an
// owned one never was a loan: nothing to do. Otherwise the bytes are copied
// now, once: into the memory the receiving connection's parked Unpack
// designates, when it waits for this very packet — the NIC depositing at
// the posted address; the packet then arrives landed — else into a wire
// buffer that travels with the packet, as an owned body does.
//
// "This very packet" is the counter rule: the sender numbers the body
// packets it puts on a connection, the receiver counts those it pops, and
// a reader parked with count k is waiting for body k as long as no body
// was lost. After a loss the receiver's count stays behind the sender's
// numbers for good, so the two never agree again on that connection and
// every later body travels in a wire buffer — never into a destination
// that is waiting for another packet.
func (c *Connection) settle(b *body, seq uint64) {
	if b.state != bodyLent {
		return
	}
	data := b.pkt.Body
	if peer, ok := c.Ch.Net.Endpoint(c.Remote); ok && peer.Landing != nil {
		if dst := peer.Landing(c.Ch.ep.Node, seq, len(data)); dst != nil {
			netsim.Copy(dst, data)
			b.pkt.Body, b.state = dst, bodyLanded
			return
		}
	}
	b.buf = c.Ch.Net.Bufs().Get(len(data))
	netsim.Copy(b.buf.B, data)
	b.pkt.Body, b.state = b.buf.B, bodyWired
}

// landing is the channel's netsim.Endpoint.Landing: the destination of the
// Unpack parked on body seq from src, if there is one and it is n bytes.
func (ch *Channel) landing(src string, seq uint64, n int) []byte {
	if c := ch.conns[src]; c != nil && c.bodiesIn == seq && len(c.want) == n {
		return c.want
	}
	return nil
}

// BeginUnpacking blocks until a message head is available on any
// connection of the channel and selects it (§3.2, mad_begin_unpacking).
// The wait follows the protocol's polling discipline (idle polls burn CPU
// on TCP-like networks).
func (ch *Channel) BeginUnpacking() (*Connection, error) {
	conn := marcel.WaitPoll(ch.Inst.P, ch.incoming, ch.PollSpec())
	return ch.startUnpack(conn)
}

func (ch *Channel) startUnpack(conn *Connection) (*Connection, error) {
	if conn.in.open {
		return nil, fmt.Errorf("madeleine: connection %s already unpacking", conn.Remote)
	}
	pkt := conn.heads.Pop() // must be present: incoming was signalled
	ch.Inst.P.Charge(ch.Params.RecvOverhead)
	seq, blocks, agg, err := decodeHead(pkt.Header, conn.in.blocks)
	if err != nil {
		return nil, err
	}
	conn.in = inMessage{open: true, seq: seq, head: pkt, blocks: blocks, agg: agg}
	return conn, nil
}

// Unpack extracts the next block of the current incoming message into dst
// (§3.2, mad_unpack), with one copy from wherever the bytes are: the head
// packet's aggregation area (charged); the sender's own memory, when the
// body packet is popped while its sender is still inside EndPacking; the
// wire buffer that sender settled into, which goes home — or with none,
// when the sender found this Unpack parked on the packet and landed the
// body in dst itself.
func (c *Connection) Unpack(dst []byte, sm SendMode, rm RecvMode) error {
	src, held, err := c.next(len(dst), rm, dst)
	if err != nil {
		return err
	}
	netsim.Copy(dst, src)
	if held != nil {
		held.Release()
	}
	return nil
}

// Take hands the next block of the current incoming message, n bytes long,
// to the caller, who owns the buffer and releases it when done (an eager
// landing area, a gateway's relay store): the wire buffer the body packet
// arrived with, or one of the network's list filled from the head packet's
// aggregation area (charged) or from the memory of a sender still inside
// EndPacking. A taker designates no address, so nothing lands for it. The
// block sequence (length, placement, receive mode) must mirror the sender's
// Pack sequence; mismatches return ErrBlockMismatch.
func (c *Connection) Take(n int, sm SendMode, rm RecvMode) (*netsim.Buf, error) {
	src, held, err := c.next(n, rm, nil)
	if err != nil {
		return nil, err
	}
	if held == nil {
		held = c.Ch.Net.Bufs().Get(n)
		netsim.Copy(held.B, src)
	}
	return held, nil
}

// next moves past the next block of the incoming message, which must be n
// bytes to be received in mode rm, charges the unpack operation and says
// where the block's bytes are: src, for the caller to copy before it blocks
// again, and held, the wire buffer they sit in when they sit in one, which
// is the caller's from here on. dst is the address the caller designates
// for a body (nil from a taker): src is empty when the body is there
// already.
func (c *Connection) next(n int, rm RecvMode, dst []byte) (src []byte, held *netsim.Buf, err error) {
	m := &c.in
	if !m.open {
		return nil, nil, ErrNotUnpacking
	}
	if m.next >= len(m.blocks) {
		return nil, nil, ErrShortMessage
	}
	p := &c.Ch.Params
	proc := c.Ch.Inst.P

	b := m.blocks[m.next]
	if int(b.length) != n || b.recvMode != rm {
		return nil, nil, fmt.Errorf("%w: block %d is %d bytes %v, unpacking %d bytes %v",
			ErrBlockMismatch, m.next, b.length, b.recvMode, n, rm)
	}
	m.next++
	m.unpacks++
	if m.unpacks > 1 {
		proc.Charge(vtime.Duration(p.ExtraPackCost) / 2)
	}

	if b.place == placeAgg {
		// Copy out of the head packet's aggregation area.
		proc.Charge(p.CopyTime(n))
		m.aggOff += n
		return m.agg[m.aggOff-n : m.aggOff], nil, nil
	}
	// The body packet follows the head in order on this connection; it
	// may still be in flight, so this can block — and while it does, dst
	// is where a sender that settles may land the body (landing).
	c.want = dst
	pkt := c.bodies.Pop()
	c.want = nil
	c.bodiesIn++
	proc.Charge(p.RecvOverhead)
	bd := pkt.Meta.(*body)
	src, held, size := pkt.Body, bd.buf, len(pkt.Body)
	if bd.state == bodyLanded {
		src = src[:0]
	}
	// Taken: the sender's record, which its connection keeps for the next
	// message, no longer holds the bytes or the buffer. Its packet stays
	// bound for that message's body (addBody).
	bd.pkt.Body, bd.buf, bd.state = nil, nil, bodyTaken
	if size != n {
		if held != nil {
			held.Release()
		}
		return nil, nil, fmt.Errorf("madeleine: body packet is %d bytes, descriptor says %d", size, n)
	}
	// Zero-copy landing: the NIC deposited the block directly at the
	// address the unpack designates, so no copy is charged.
	return src, held, nil
}

// EndUnpacking finishes consumption of the current message (§3.2,
// mad_end_unpacking). Every packed block must have been unpacked.
func (c *Connection) EndUnpacking() error {
	m := &c.in
	if !m.open {
		return ErrNotUnpacking
	}
	if m.next != len(m.blocks) {
		return fmt.Errorf("%w: %d of %d blocks unpacked", ErrBlockMismatch, m.next, len(m.blocks))
	}
	m.open = false
	m.head.Release()
	m.head, m.agg = nil, nil
	c.Ch.Messages++
	return nil
}
