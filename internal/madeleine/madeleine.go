package madeleine

import (
	"fmt"

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

	out    *outMessage
	in     *inMessage
	outSeq uint32
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
	inst.channels[name] = ch
	return ch, nil
}

// Channel returns a channel by name.
func (inst *Instance) Channel(name string) (*Channel, bool) {
	ch, ok := inst.channels[name]
	return ch, ok
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
	if conn.out != nil {
		conn.sendLock.Release()
		return nil, ErrAlreadyPacking
	}
	conn.outSeq++
	conn.out = &outMessage{conn: conn, seq: conn.outSeq}
	return conn, nil
}

// Pack appends one data block to the message under construction (§3.2,
// mad_pack): the user's bytes are snapshotted into a wire buffer of the
// channel's network and packed as an owned block. The snapshot is the one
// host copy of the send side and carries no time charge — the NIC DMAs
// straight from user memory; the copy only exists because the simulator
// and the application share an address space.
func (c *Connection) Pack(data []byte, sm SendMode, rm RecvMode) error {
	buf := c.Ch.Net.Bufs().Get(len(data))
	copy(buf.B, data)
	return c.PackOwned(buf, sm, rm)
}

// PackOwned appends the block held in buf, which the message takes over
// (also when it fails). Express blocks and small cheaper blocks are
// coalesced into the head packet (a real copy, charged at the driver's
// copy bandwidth; buf goes home at once); large cheaper blocks become
// standalone zero-copy body packets that carry buf to whoever unpacks
// them.
//
// Every pack operation beyond the first charges the network's extra-pack
// cost (half here, half at the matching Unpack), reproducing the overhead
// decomposition of §5.2–§5.4.
func (c *Connection) PackOwned(buf *netsim.Buf, sm SendMode, rm RecvMode) error {
	m := c.out
	if m == nil {
		buf.Release()
		return ErrNotPacking
	}
	p := &c.Ch.Params
	proc := c.Ch.Inst.P
	n := len(buf.B)

	m.packs++
	if m.packs > 1 {
		proc.Compute(vtime.Duration(p.ExtraPackCost) / 2)
	}
	m.total += n

	d := blockDesc{place: placeBody, sendMode: sm, recvMode: rm, length: uint32(n)}
	if rm == ReceiveExpress || sm == SendSafer || n <= p.AggLimit {
		d.place = placeAgg
		proc.Compute(p.CopyTime(n))
		m.agg = append(m.agg, buf.B...)
		buf.Release()
	} else {
		m.bodies = append(m.bodies, buf)
	}
	m.blocks = append(m.blocks, d)
	return nil
}

// EndPacking finalizes and transmits the message (§3.2, mad_end_packing).
// It blocks (in virtual time) until every packet has been injected on the
// wire, i.e. until the application may safely reuse SendLater/SendCheaper
// buffers — matching Madeleine's blocking primitives.
func (c *Connection) EndPacking() error {
	m := c.out
	if m == nil {
		return ErrNotPacking
	}
	c.out = nil
	p := &c.Ch.Params
	proc := c.Ch.Inst.P
	s := proc.S

	if p.LargeMsgLimit > 0 && m.total > p.LargeMsgLimit {
		proc.Compute(p.LargeMsgPenalty)
	}

	// Head packet: descriptor table + aggregated data.
	proc.Compute(p.SendOverhead)
	head := &netsim.Packet{
		Dst:    c.Remote,
		Kind:   int(pktHead),
		Header: encodeHead(m.seq, m.blocks, m.agg),
	}
	if err := c.Ch.ep.Send(head); err != nil {
		c.sendLock.Release()
		return err
	}
	last := head.ArriveAt

	// Body packets, in block order, pipelined behind the head.
	for _, body := range m.bodies {
		proc.Compute(p.SendOverhead)
		pkt := &netsim.Packet{Dst: c.Remote, Kind: int(pktBody), Body: body.B, Meta: body}
		if err := c.Ch.ep.Send(pkt); err != nil {
			c.sendLock.Release()
			return err
		}
		last = pkt.ArriveAt
	}

	// Block until the wire has consumed our buffers: the last packet's
	// injection completes one wire latency before its arrival.
	injected := last.Add(-p.WireLatency)
	if injected > s.Now() {
		s.Sleep(injected.Sub(s.Now()))
	}
	c.sendLock.Release()
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

// TryBeginUnpacking is the non-blocking variant; ok=false when no message
// is pending.
func (ch *Channel) TryBeginUnpacking() (*Connection, bool, error) {
	conn, ok := ch.incoming.TryPop()
	if !ok {
		return nil, false, nil
	}
	c, err := ch.startUnpack(conn)
	return c, true, err
}

func (ch *Channel) startUnpack(conn *Connection) (*Connection, error) {
	if conn.in != nil {
		return nil, fmt.Errorf("madeleine: connection %s already unpacking", conn.Remote)
	}
	pkt := conn.heads.Pop() // must be present: incoming was signalled
	ch.Inst.P.Compute(ch.Params.RecvOverhead)
	seq, blocks, agg, err := decodeHead(pkt.Header)
	if err != nil {
		return nil, err
	}
	conn.in = &inMessage{conn: conn, seq: seq, blocks: blocks, agg: agg}
	return conn, nil
}

// Unpack extracts the next block of the current incoming message into dst
// (§3.2, mad_unpack): the block is taken, copied out and sent home.
func (c *Connection) Unpack(dst []byte, sm SendMode, rm RecvMode) error {
	buf, err := c.Take(len(dst), sm, rm)
	if err != nil {
		return err
	}
	copy(dst, buf.B)
	buf.Release()
	return nil
}

// Take hands the next block of the current incoming message, n bytes long,
// to the caller, who owns the buffer and releases it when done. The block
// sequence (length, placement, receive mode) must mirror the sender's Pack
// sequence; mismatches return ErrBlockMismatch.
func (c *Connection) Take(n int, sm SendMode, rm RecvMode) (*netsim.Buf, error) {
	m := c.in
	if m == nil {
		return nil, ErrNotUnpacking
	}
	if m.next >= len(m.blocks) {
		return nil, ErrShortMessage
	}
	p := &c.Ch.Params
	proc := c.Ch.Inst.P

	b := m.blocks[m.next]
	if int(b.length) != n || b.recvMode != rm {
		return nil, fmt.Errorf("%w: block %d is %d bytes %v, unpacking %d bytes %v",
			ErrBlockMismatch, m.next, b.length, b.recvMode, n, rm)
	}
	m.next++
	m.unpacks++
	if m.unpacks > 1 {
		proc.Compute(vtime.Duration(p.ExtraPackCost) / 2)
	}

	if b.place == placeAgg {
		// Copy out of the head packet's aggregation area.
		proc.Compute(p.CopyTime(n))
		buf := c.Ch.Net.Bufs().Get(n)
		copy(buf.B, m.agg[m.aggOff:m.aggOff+n])
		m.aggOff += n
		return buf, nil
	}
	// The body packet follows the head in order on this connection; it
	// may still be in flight, so this can block.
	pkt := c.bodies.Pop()
	proc.Compute(p.RecvOverhead)
	if len(pkt.Body) != n {
		return nil, fmt.Errorf("madeleine: body packet is %d bytes, descriptor says %d", len(pkt.Body), b.length)
	}
	// Zero-copy landing: the NIC deposited the block directly at the
	// address the unpack designates, so no copy is charged.
	return pkt.Meta.(*netsim.Buf), nil
}

// UnpackInt is a convenience for the §3.2 example pattern: unpack a
// 4-byte little-endian length field with EXPRESS semantics.
func (c *Connection) UnpackInt(sm SendMode, rm RecvMode) (int, error) {
	var b [4]byte
	if err := c.Unpack(b[:], sm, rm); err != nil {
		return 0, err
	}
	return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24), nil
}

// PackInt packs a 4-byte little-endian integer.
func (c *Connection) PackInt(v int, sm SendMode, rm RecvMode) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return c.Pack(b[:], sm, rm)
}

// EndUnpacking finishes consumption of the current message (§3.2,
// mad_end_unpacking). Every packed block must have been unpacked.
func (c *Connection) EndUnpacking() error {
	m := c.in
	if m == nil {
		return ErrNotUnpacking
	}
	if m.next != len(m.blocks) {
		return fmt.Errorf("%w: %d of %d blocks unpacked", ErrBlockMismatch, m.next, len(m.blocks))
	}
	c.in = nil
	c.Ch.Messages++
	return nil
}
