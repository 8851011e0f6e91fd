package core

import (
	"mpichmad/internal/adi"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
)

// sendEager transmits a MAD_SHORT_PKT: header EXPRESS, user data as a
// zero-copy CHEAPER body (the §4.2.2 split). Completion is local: Done
// fires when the message is injected.
func (d *Device) sendEager(sr *adi.SendReq, rt Route) {
	d.NEager++
	d.Metrics.Add("eager.msgs", rt.Class, 1)
	d.Metrics.Add("eager.bytes", rt.Class, int64(len(sr.Data)))
	t0 := d.traceNow()
	h := header{
		Type:    PktShort,
		SrcRank: sr.Env.Src,
		DstRank: sr.Dst,
		Tag:     sr.Env.Tag,
		Context: sr.Env.Context,
		Len:     sr.Env.Len,
	}
	var body []byte // an empty message ships its header alone
	if len(sr.Data) > 0 {
		body = sr.Data
		if d.MonolithicEager {
			// Ablation X2: naive ADI short packet with a constant
			// MPID_PKT_MAX_DATA_SIZE buffer: copy the user data in
			// (sender-side copy!) and ship the whole padded buffer. A
			// per-link threshold may sit above the device-wide one.
			body = make([]byte, max(d.switchPoint, len(sr.Data)))
			d.proc.Charge(rt.Channel.Params.CopyTime(len(sr.Data)))
			copy(body, sr.Data)
		}
	}
	err := d.emit(rt, h, body, nil, d.bodySendMode(h))
	if d.Trace != nil {
		d.Trace.Span(d.TraceTrack, trace.KPkt, "eager.send", t0, trace.Args{
			HasPeer: true, Src: int32(sr.Env.Src), Dst: int32(sr.Dst),
			Bytes: int64(len(sr.Data)), Class: rt.Class,
		})
	}
	sr.Err = err
	sr.Done.Fire()
}

// bodyWireLen is the length of the body block a packet with this header
// carries on the wire: the announced length, except that a monolithic
// eager packet is padded to the constant-size buffer.
func (d *Device) bodyWireLen(h header) int {
	if d.MonolithicEager && h.Type == PktShort && h.Len > 0 && h.Len < d.switchPoint {
		return d.switchPoint
	}
	return h.Len
}

// inShort lands an eager message: the body block taken off the wire is
// the landing area, and the matched buffer gets it via one intermediary
// copy ("optimized for latency, at the cost of an intermediary copy on the
// receiving side", §4.1) — at once, or when the unexpected queue matches.
func (d *Device) inShort(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	env := h.envelope()
	scratch := d.receive(ch, conn, h) // nil for an empty message
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KPkt, "eager.recv", trace.Args{
			HasPeer: true, Src: int32(env.Src), Dst: int32(d.rank), Bytes: int64(env.Len),
		})
	}
	if r := d.eng.MatchPosted(env); r != nil {
		d.landEager(ch, r, env, scratch)
		return
	}
	d.eng.AddUnexpected(env, func(r *adi.RecvReq) { d.landEager(ch, r, env, scratch) })
}

// landEager completes an eager receive: the intermediary copy out of the
// packet's landing buffer, charged at the receiving channel's copy rate,
// after which the landing buffer goes home.
func (d *Device) landEager(ch *madeleine.Channel, r *adi.RecvReq, env adi.Envelope, scratch *netsim.Buf) {
	n, err := adi.CheckLen(r, env)
	d.proc.Charge(ch.Params.CopyTime(n))
	if scratch != nil {
		netsim.Copy(r.Buf, scratch.B[:n])
		scratch.Release()
	}
	adi.FinishRecv(r, env, err)
}
