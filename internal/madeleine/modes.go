// Package madeleine reimplements the Madeleine II multi-protocol
// communication library (§3 of the paper): channels bound to one network
// protocol, reliable in-order point-to-point connections, and incremental
// message construction through pack/unpack primitives whose send/receive
// mode flags let the library choose the optimal transfer strategy for each
// data block on each network.
//
// A block that travels as its own body packet is an owned wire buffer
// (netsim.Buf) of the channel's network from end to end. Pack snapshots
// the user's bytes into one — the only host copy of the send side; it
// models nothing (the NIC reads user memory) and exists because simulator
// and application share an address space — and Unpack copies out of it
// into the address the receiver designates and sends it home. Both are
// thin wrappers over the owned forms a device uses when the block should
// not be copied again: PackOwned packs a buffer the caller already holds
// (a gateway re-emitting what it stored) and Take hands the arriving
// buffer to the caller (an eager landing area, a relay store), who
// releases it when done. Blocks coalesced into the head packet never hold
// a buffer in flight: PackOwned copies them into the head and releases at
// once, Take copies them out into a fresh list buffer, so a taker always
// owns what it gets. The time charges are those of the block's placement
// and are identical through either form.
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
