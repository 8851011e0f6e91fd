// Package core implements the paper's contribution: the ch_mad MPICH
// device (§4), a single ADI device built on the Madeleine multi-protocol
// library that handles every inter-node communication of an MPI session,
// across all networks simultaneously.
//
// Structure (Fig. 3): one Madeleine channel per network protocol, one
// polling thread per channel, eager and rendez-vous transfer modes
// (Fig. 4), the five packet types of Fig. 5, the header/body split that
// avoids the sender-side eager copy (§4.2.2), and the single elected
// eager->rendez-vous switch point that the ADI's MPID_Device structure
// forces on the device (§4.2.2).
package core

import (
	"encoding/binary"
	"fmt"

	"mpichmad/internal/adi"
)

// PktType discriminates the ch_mad packet types of Fig. 5. Giving the
// discriminator a named type (instead of a bare int) lets the madlint
// pktswitch analyzer prove every switch over it is exhaustive: adding a
// packet type without handling it everywhere becomes a lint-time error
// instead of a runtime panic at rank 900 of a 1000-rank job.
type PktType uint8

// ch_mad packet types (Fig. 5).
const (
	// PktShort carries eager-mode data: the ADI short-packet header
	// travels in the ch_mad header buffer, the user data as the
	// Madeleine message body (the §4.2.2 split).
	PktShort PktType = iota + 1
	// PktRequest opens a rendez-vous: envelope only (Fig. 4b "Request").
	PktRequest
	// PktSendOK acknowledges a rendez-vous: carries the receiver's
	// sync_address (MPID_RNDV_T hook) and echoes the sender's request id.
	PktSendOK
	// PktRndv carries rendez-vous data: sync_address in the header, the
	// payload as a zero-copy body.
	PktRndv
	// PktTerm terminates the receiving polling loop (MAD_TERM_PKT). The
	// daemon pollers need none at MPI_Finalize; the tests send it.
	PktTerm
	// PktRndvSeg carries one pipelined segment of a multi-hop rendez-vous
	// body (§6 forwarding extension): sync_address and byte offset in the
	// header, the segment as a zero-copy body. Gateways relay each segment
	// independently, so segment k+1 is in flight on the inbound hop while
	// segment k is already being re-emitted outbound.
	PktRndvSeg
	// PktNack reports a relay refusal back to the original sender of a
	// rendez-vous request. Carries the request id plus a reason code in
	// the Context field: NackNoRoute (a gateway had no onward route; the
	// sender fails that send with an MPI error instead of the whole
	// simulation crashing) or NackBusy (admission control: the gateway's
	// bounded relay queue is full; the sender backs off and retries).
	PktNack
)

// PktNack reason codes, carried in the header's Context field (a nack
// never carries an MPI context).
const (
	// NackNoRoute: the relaying gateway has no onward route (misconfigured
	// multi-hop topology). Fatal for the send.
	NackNoRoute = 0
	// NackBusy: the relaying gateway's store-and-forward queue is at its
	// credit bound and refused to admit a new rendez-vous transfer. The
	// sender retries after a backoff.
	NackBusy = 1
)

// String names the packet type as the paper's Fig. 5 spells it.
func (t PktType) String() string {
	switch t {
	case PktShort:
		return "MAD_SHORT_PKT"
	case PktRequest:
		return "MAD_REQUEST_PKT"
	case PktSendOK:
		return "MAD_SENDOK_PKT"
	case PktRndv:
		return "MAD_RNDV_PKT"
	case PktTerm:
		return "MAD_TERM_PKT"
	case PktRndvSeg:
		return "MAD_RNDVSEG_PKT"
	case PktNack:
		return "MAD_NACK_PKT"
	default:
		return fmt.Sprintf("pkt(%d)", uint8(t))
	}
}

// header is the fixed ch_mad message header, always packed EXPRESS as the
// first Madeleine block ("the header is always sent following the
// Madeleine EXPRESS semantics (it contains data needed to unpack the
// body)", §4.2.1). SrcRank/DstRank enable the gateway-forwarding
// extension (§6 future work).
type header struct {
	Type    PktType
	SrcRank int
	DstRank int
	Tag     int
	Context int
	Len     int
	ReqID   uint32 // sender-side rendez-vous request id
	SyncID  uint32 // receiver-side sync_address (MPID_RNDV_T)
	Offset  int    // byte offset of a pipelined RNDV segment (PktRndvSeg)
	PathID  int    // rail tag of a striped RNDV segment: which of the
	// sender's edge-disjoint paths this segment rides; relaying gateways
	// use it to keep the stripe on the matching rail of their own route
	// set (0 = primary path, the only value non-striped traffic carries)
	Budget int // remaining hop budget of a routed segment: the sender
	// stamps the rail's planned path length and every relay decrements,
	// so a gateway only continues a stripe on a rail that fits the
	// remaining budget — under a stable plan a stripe stays on a suffix
	// of its planned rail and never takes extra hops (a mid-flight
	// Replan may strand a stale budget; railFor then degrades to the
	// most direct deliverable rail). 0 = no budget: primary-rail routing.
}

// HeaderSize is the wire size of the ch_mad header block.
const HeaderSize = 1 + 5*4 + 2*4 + 4 + 2

// put encodes the header into buf, HeaderSize bytes.
func (h *header) put(buf []byte) {
	buf[0] = byte(h.Type)
	le := binary.LittleEndian
	le.PutUint32(buf[1:], uint32(int32(h.SrcRank)))
	le.PutUint32(buf[5:], uint32(int32(h.DstRank)))
	le.PutUint32(buf[9:], uint32(int32(h.Tag)))
	le.PutUint32(buf[13:], uint32(int32(h.Context)))
	le.PutUint32(buf[17:], uint32(int32(h.Len)))
	le.PutUint32(buf[21:], h.ReqID)
	le.PutUint32(buf[25:], h.SyncID)
	le.PutUint32(buf[29:], uint32(int32(h.Offset)))
	buf[33] = byte(h.PathID)
	buf[34] = byte(h.Budget)
}

func decodeHeader(buf []byte) (header, error) {
	if len(buf) != HeaderSize {
		return header{}, fmt.Errorf("core: header is %d bytes, want %d", len(buf), HeaderSize)
	}
	le := binary.LittleEndian
	return header{
		Type:    PktType(buf[0]),
		SrcRank: int(int32(le.Uint32(buf[1:]))),
		DstRank: int(int32(le.Uint32(buf[5:]))),
		Tag:     int(int32(le.Uint32(buf[9:]))),
		Context: int(int32(le.Uint32(buf[13:]))),
		Len:     int(int32(le.Uint32(buf[17:]))),
		ReqID:   le.Uint32(buf[21:]),
		SyncID:  le.Uint32(buf[25:]),
		Offset:  int(int32(le.Uint32(buf[29:]))),
		PathID:  int(buf[33]),
		Budget:  int(buf[34]),
	}, nil
}

// carriesBody reports whether a packet with this header has a body block
// behind it. An empty eager message ships its header alone; rendez-vous
// data always ships its body block, even an empty one (a zero-length
// synchronous send); everything else is a header-only control packet.
func (h *header) carriesBody() bool {
	switch h.Type {
	case PktShort:
		return h.Len > 0
	case PktRndv, PktRndvSeg:
		return true
	default:
		return false
	}
}

func (h *header) envelope() adi.Envelope {
	return adi.Envelope{Src: h.SrcRank, Tag: h.Tag, Context: h.Context, Len: h.Len}
}
