package madeleine

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mpichmad/internal/netsim"
)

// Block placement on the wire: either coalesced into the head packet's
// aggregation area, or shipped as a standalone body packet.
type blockPlacement uint8

const (
	placeAgg blockPlacement = iota
	placeBody
)

// blockDesc describes one packed block inside a message.
type blockDesc struct {
	place    blockPlacement
	sendMode SendMode
	recvMode RecvMode
	length   uint32
}

// Wire encoding of a message head:
//
//	u32 seq | u16 nblocks | nblocks x (u8 place | u8 sendMode | u8 recvMode | u32 len) | agg bytes
//
// Body packets carry their block's bytes verbatim and reference the block
// by index through Packet.Kind's payload (see pktBody).
const headFixed = 4 + 2
const perBlock = 1 + 1 + 1 + 4

// appendHead appends the encoding of a head — descriptor table, then
// aggregation area — to buf, growing it at most once.
func appendHead(buf []byte, seq uint32, blocks []blockDesc, agg []byte) []byte {
	buf = slices.Grow(buf, headFixed+perBlock*len(blocks)+len(agg))
	le := binary.LittleEndian
	buf = le.AppendUint16(le.AppendUint32(buf, seq), uint16(len(blocks)))
	for _, b := range blocks {
		buf = le.AppendUint32(append(buf, byte(b.place), byte(b.sendMode), byte(b.recvMode)), b.length)
	}
	return append(buf, agg...)
}

// decodeHead parses a head packet produced by appendHead, decoding the
// descriptor table into blocks' storage.
func decodeHead(buf []byte, blocks []blockDesc) (uint32, []blockDesc, []byte, error) {
	if len(buf) < headFixed {
		return 0, nil, nil, fmt.Errorf("madeleine: truncated head (%d bytes)", len(buf))
	}
	seq := binary.LittleEndian.Uint32(buf[0:])
	n := int(binary.LittleEndian.Uint16(buf[4:]))
	need := headFixed + perBlock*n
	if len(buf) < need {
		return 0, nil, nil, fmt.Errorf("madeleine: truncated descriptor table (%d blocks, %d bytes)", n, len(buf))
	}
	blocks = slices.Grow(blocks[:0], n)[:n]
	off := headFixed
	aggLen := 0
	for i := range blocks {
		blocks[i] = blockDesc{
			place:    blockPlacement(buf[off]),
			sendMode: SendMode(buf[off+1]),
			recvMode: RecvMode(buf[off+2]),
			length:   binary.LittleEndian.Uint32(buf[off+3:]),
		}
		if blocks[i].place == placeAgg {
			aggLen += int(blocks[i].length)
		}
		off += perBlock
	}
	if len(buf) != need+aggLen {
		return 0, nil, nil, fmt.Errorf("madeleine: head size %d, want %d (+%d agg)", len(buf), need, aggLen)
	}
	return seq, blocks, buf[need:], nil
}

// bodyState says where the bytes of a standalone block are.
type bodyState uint8

const (
	// bodyLent: still only in the sender's memory, which pkt.Body aliases.
	// The sender is inside EndPacking and must not return before the state
	// has moved on (settle).
	bodyLent bodyState = iota
	// bodyWired: in buf, a wire buffer the packet owns — packed owned, or
	// filled by settle because nobody was waiting for the bytes.
	bodyWired
	// bodyLanded: in the destination of the Unpack that was parked on this
	// very packet when the sender settled; pkt.Body aliases it.
	bodyLanded
	// bodyTaken: consumed by the receiver; nothing is held any more.
	bodyTaken
)

// body is one standalone block of an outgoing message together with the
// packet that carries it (whose Meta points back here), so a body costs no
// allocation of its own. Sender and receiver both work on it — everything
// in a simulation runs on the scheduler's goroutine — and whoever needs the
// bytes first moves them, once.
type body struct {
	pkt   netsim.Packet
	buf   *netsim.Buf
	state bodyState
}

// outMessage is the sender-side state of a message under construction,
// open from BeginPacking to EndPacking.
type outMessage struct {
	open   bool
	seq    uint32
	blocks []blockDesc
	agg    []byte
	bodies []body // placeBody blocks, in block order
	packs  int
	total  int
}

// begin opens the record for message seq. It keeps the storage of the
// descriptor table and the aggregation area, whose bytes appendHead copied
// into the last head packet, and that of the bodies, packets included, only
// when every one of them has been taken. A body in flight is a packet the
// network or the receiver holds, which the next message must not
// overwrite, and the sender cannot tell it from one the wire lost; a body
// never sent is not taken either. Any of them makes the next message start
// a fresh slice.
func (m *outMessage) begin(seq uint32) {
	bodies := m.bodies[:0]
	for i := range m.bodies {
		if m.bodies[i].state != bodyTaken {
			bodies = nil
			break
		}
	}
	*m = outMessage{open: true, seq: seq, blocks: m.blocks[:0], agg: m.agg[:0], bodies: bodies}
}

// addBody appends a body record for data and returns it. A slot the
// record had from an earlier message keeps its packet, whose delivery the
// network has bound already; everything the earlier body held is gone
// (next took it).
func (m *outMessage) addBody(data []byte, owned *netsim.Buf) *body {
	if n := len(m.bodies); n < cap(m.bodies) {
		m.bodies = m.bodies[:n+1]
	} else {
		m.bodies = append(m.bodies, body{})
	}
	b := &m.bodies[len(m.bodies)-1]
	b.pkt.Body, b.buf, b.state = data, owned, bodyLent
	if owned != nil {
		b.state = bodyWired
	}
	return b
}

// inMessage is the receiver-side state of a message being consumed, open
// from BeginUnpacking to EndUnpacking.
type inMessage struct {
	open    bool
	seq     uint32
	head    *netsim.Packet // sent home by EndUnpacking
	blocks  []blockDesc
	agg     []byte // in head's Header
	aggOff  int
	next    int // index of the next block to unpack
	unpacks int
}
