// Package madeleine reimplements the Madeleine II multi-protocol
// communication library (§3 of the paper): channels bound to one network
// protocol, reliable in-order point-to-point connections, and incremental
// message construction through pack/unpack primitives whose send/receive
// mode flags let the library choose the optimal transfer strategy for each
// data block on each network.
//
// A block that travels as its own body packet is copied once on the host,
// by whoever needs its bytes first. Pack does not copy it: the message
// borrows the caller's slice, which the SendLater/SendCheaper contract keeps
// untouched until EndPacking returns, and the body packet goes on the wire
// carrying that loan. If the receiver pops the packet while the sender is
// still inside EndPacking (the earlier bodies of a multi-body message, a
// link without latency), its Unpack or Take copies straight from the
// sender's bytes. Otherwise EndPacking settles the loan before it returns:
// into the destination of the Unpack parked on that very packet, when there
// is one — the usual state of a rendez-vous, whose polling thread has read
// the header and waits for the body while it serialises; the packet then
// arrives already landed, which is the NIC depositing at the designated
// address that the zero-copy charge always assumed — or else (receiver late,
// receiver in Take because it needs to own the buffer, lengths or body
// counts that disagree) into a wire buffer (netsim.Buf) of the channel's
// network that travels with the packet. Which of the three happens is
// decided by what the two connections observe of each other, never by a
// setting; no time is charged for any of them, and none of them is a
// scheduler operation, so virtual time cannot tell them apart. The copy
// exists at all only because simulator and application share an address
// space.
//
// The owned forms are what a device uses when it holds, or wants to hold,
// the buffer itself: PackOwned packs a wire buffer the caller already has (a
// gateway re-emitting what it stored) and the packet carries it from the
// start; Take hands the arriving buffer to the caller (an eager landing
// area, a relay store), who releases it when done. Blocks coalesced into
// the head packet never hold a buffer in flight: Pack and PackOwned copy
// them into the head's aggregation area (charged; an owned buffer goes home
// at once), Unpack copies them out into the destination and Take into a
// fresh list buffer, so a taker always owns what it gets. The time charges
// are those of the block's placement and are identical through either form.
//
// A message's records belong to its connection, not to the message. Each
// Connection keeps one outgoing and one incoming record (outMessage,
// inMessage) that every message reuses: the descriptor table and the
// aggregation area are overwritten by the next BeginPacking (appendHead has
// copied them into the head packet), and decodeHead decodes each head into
// the incoming record's table. The bodies are different, because a body
// embeds the packet the network and the receiving connection hold by
// address: the next message reuses their storage only when every earlier
// body has reached bodyTaken. A body still in flight or queued, one the
// network lost and one EndPacking never sent (the wire refused an earlier
// packet) keep their packets, and the next message starts a fresh slice.
// The head packet is a record of the network's free list (NewPacket), its
// encoding appended to the storage the record kept; the receiver sends it
// home at EndUnpacking, once every block has been copied out of it. A
// reused packet keeps the delivery the network bound to it, so a message
// allocates nothing once its connection and the network's list are warm.
package madeleine

import "fmt"

// SendMode qualifies how the sender's buffer may be used (§3.2).
type SendMode int

const (
	// SendSafer requires the library to snapshot the data immediately;
	// the application may modify the buffer as soon as Pack returns.
	// This forces a copy on every network.
	SendSafer SendMode = iota
	// SendLater requires the buffer to stay untouched until EndPacking.
	SendLater
	// SendCheaper lets the library pick the cheapest strategy for the
	// underlying network (the common choice, and the one ch_mad uses
	// for both headers and bodies).
	SendCheaper
)

func (m SendMode) String() string {
	switch m {
	case SendSafer:
		return "send_SAFER"
	case SendLater:
		return "send_LATER"
	case SendCheaper:
		return "send_CHEAPER"
	}
	return fmt.Sprintf("SendMode(%d)", int(m))
}

// RecvMode qualifies when the receiver needs the data (§3.2).
type RecvMode int

const (
	// ReceiveExpress guarantees the data is available as soon as the
	// corresponding Unpack returns; used for control information that
	// later Unpacks depend on (e.g. a length field). Express data
	// travels with the message header.
	ReceiveExpress RecvMode = iota
	// ReceiveCheaper lets the library defer/optimize extraction; data
	// is only guaranteed after EndUnpacking. Large blocks travel
	// zero-copy where the network allows it.
	ReceiveCheaper
)

func (m RecvMode) String() string {
	switch m {
	case ReceiveExpress:
		return "receive_EXPRESS"
	case ReceiveCheaper:
		return "receive_CHEAPER"
	}
	return fmt.Sprintf("RecvMode(%d)", int(m))
}

// Errors returned by mis-sequenced pack/unpack operations. They surface
// protocol bugs in devices built on the library, so they are sentinel
// values tests can match on.
var (
	ErrNotPacking     = fmt.Errorf("madeleine: no message being packed on this connection")
	ErrAlreadyPacking = fmt.Errorf("madeleine: a message is already being packed on this connection")
	ErrNotUnpacking   = fmt.Errorf("madeleine: no message being unpacked on this connection")
	ErrBlockMismatch  = fmt.Errorf("madeleine: unpack does not match the packed block sequence")
	ErrShortMessage   = fmt.Errorf("madeleine: message has fewer blocks than unpacked")
	ErrChannelClosed  = fmt.Errorf("madeleine: channel closed")
)
