package core

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// rndvSend is the sender-side rendez-vous bookkeeping: the request parked
// until its SendOK returns, and how many times a busy gateway refused it.
type rndvSend struct {
	sr       *adi.SendReq
	attempts int
}

// rndvState is the receiver-side rendez-vous bookkeeping: the paper's
// MPID_RNDV_T synchronization structure (a semaphore plus the owning
// rhandle); here the rhandle's Done event plays the semaphore.
type rndvState struct {
	r   *adi.RecvReq
	env adi.Envelope

	// remaining tracks outstanding body bytes: the body arrives whole
	// (PktRndv, the segment [0, Len)) or as pipelined segments
	// (PktRndvSeg). scratch is the landing area for truncating receives,
	// allocated on first need.
	remaining int
	scratch   []byte
}

// segLanding returns the landing area for the segment [offset, offset+n)
// of the body. Truncating receives land in a scratch buffer sized to the
// announced body; either way the bounds are validated against that
// announcement, so a corrupted header surfaces as a protocol error instead
// of a slice panic deep in the poll loop.
func (st *rndvState) segLanding(offset, n int, truncated bool) ([]byte, error) {
	if offset < 0 || n < 0 || offset+n > st.env.Len {
		return nil, fmt.Errorf("RNDV segment [%d,%d) outside announced body of %d bytes",
			offset, offset+n, st.env.Len)
	}
	if truncated {
		if st.scratch == nil {
			st.scratch = make([]byte, st.env.Len)
		}
		return st.scratch[offset : offset+n], nil
	}
	return st.r.Buf[offset : offset+n], nil
}

// segDone marks n landed body bytes and reports whether the transfer is
// complete.
func (st *rndvState) segDone(n int) bool {
	st.remaining -= n
	return st.remaining <= 0
}

// sendRndvRequest opens a rendez-vous (Fig. 4b): emit MAD_REQUEST_PKT and
// park the request until the SendOK returns.
func (d *Device) sendRndvRequest(sr *adi.SendReq, rt Route) {
	d.NRndv++
	d.Metrics.Add("rndv.msgs", rt.Class, 1)
	d.Metrics.Add("rndv.bytes", rt.Class, int64(sr.Env.Len))
	d.nextReq++
	id := d.nextReq
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRndv, "rndv.req", trace.Args{
			HasPeer: true, Src: int32(sr.Env.Src), Dst: int32(sr.Dst),
			Bytes: int64(sr.Env.Len), Seq: id, Class: rt.Class,
		})
	}
	d.rndvTx[id] = rndvSend{sr: sr}
	if err := d.sendHeaderOnly(rt, requestHeader(sr, id)); err != nil {
		d.failSend(id, err)
	}
}

// requestHeader is the MAD_REQUEST_PKT of a parked send: its envelope plus
// the request id the SendOK (or a nack) echoes back.
func requestHeader(sr *adi.SendReq, id uint32) header {
	return header{
		Type:    PktRequest,
		SrcRank: sr.Env.Src,
		DstRank: sr.Dst,
		Tag:     sr.Env.Tag,
		Context: sr.Env.Context,
		Len:     sr.Env.Len,
		ReqID:   id,
	}
}

// failSend completes a parked rendez-vous send with an error and frees its
// table entry.
func (d *Device) failSend(id uint32, err error) {
	sr := d.rndvTx[id].sr
	delete(d.rndvTx, id)
	sr.Err = err
	sr.Done.Fire()
}

// inRequest matches a rendez-vous request (Fig. 4b step 1-2): as soon as
// an rhandle is in charge, reply MAD_SENDOK_PKT carrying the sync_address.
// The reply runs on a temporary thread: "each polling thread creates
// threads in order to perform request and acknowledgement operations of
// the rendez-vous transfer mode" (§4.2.3).
func (d *Device) inRequest(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	d.receive(ch, conn, h)
	env := h.envelope()
	if r := d.eng.MatchPosted(env); r != nil {
		d.replySendOK(h, r, env)
		return
	}
	d.eng.AddUnexpected(env, func(r *adi.RecvReq) {
		d.replySendOK(h, r, env)
	})
}

func (d *Device) replySendOK(req header, r *adi.RecvReq, env adi.Envelope) {
	back, ok := d.RouteTo(req.SrcRank)
	if !ok {
		adi.FinishRecv(r, env, fmt.Errorf("ch_mad: no return route to rank %d", req.SrcRank))
		return
	}
	d.nextSync++
	sync := d.nextSync
	d.rndvRx[sync] = &rndvState{r: r, env: env, remaining: env.Len}
	ok2S := header{
		Type:    PktSendOK,
		SrcRank: d.rank,
		DstRank: req.SrcRank,
		ReqID:   req.ReqID,
		SyncID:  sync,
	}
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRndv, "rndv.ok", trace.Args{
			HasPeer: true, Src: int32(d.rank), Dst: int32(req.SrcRank),
			Bytes: int64(env.Len), Seq: req.ReqID, Val: int64(sync),
		})
	}
	d.proc.Spawn("ch_mad.sendok", func() {
		if err := d.sendHeaderOnly(back, ok2S); err != nil {
			panic(fmt.Sprintf("ch_mad[%d]: sendok: %v", d.rank, err))
		}
	})
}

// inSendOK completes the sender side (Fig. 4b step 3): the data message
// MAD_RNDV_PKT carries the receiver's sync_address in its header and the
// payload as a zero-copy body. Runs on a temporary thread so the polling
// thread never blocks in a send.
func (d *Device) inSendOK(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	d.receive(ch, conn, h)
	tx, ok := d.rndvTx[h.ReqID]
	if !ok {
		panic(fmt.Sprintf("ch_mad[%d]: SendOK for unknown request %d", d.rank, h.ReqID))
	}
	sr := tx.sr
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRndv, "rndv.ack", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank), Seq: h.ReqID,
		})
	}
	rt, ok := d.RouteTo(sr.Dst)
	if !ok {
		// The destination's rails were withdrawn between REQUEST and SENDOK.
		d.failSend(h.ReqID, fmt.Errorf("ch_mad: rank %d lost its route to rank %d before the rendez-vous body", d.rank, sr.Dst))
		return
	}
	delete(d.rndvTx, h.ReqID)
	if d.RelayPipelining {
		// Which rails carry the body, and above which size it is cut into
		// a segment train. Striping is gated on the rail set, not on the
		// hop count alone: a direct *backbone* pair with edge-disjoint
		// alternates (co-leader bundle exchanges over parallel bridges)
		// stripes exactly like the multi-hop p2p path, instead of funneling
		// the whole body down the primary rail — its threshold comes from
		// the rails' own stripe segments, because a direct primary has no
		// relay segment. Direct SAN/SMP pairs do NOT stripe even with
		// alternates: their "alternate" is a detour over the same shared
		// intra-cluster medium, so dealing segments onto it only adds
		// relay hops. A single-rail multi-hop route keeps the segmented
		// pipeline — the stripe over a one-rail set; a single-rail direct
		// pair keeps the whole-body rendez-vous.
		rails, thr := d.Rails(sr.Dst), rt.SegBytes
		switch {
		case d.RelayStriping && len(rails) > 1 && (rt.Hops > 1 || rt.Class == "wan"):
			if thr == 0 {
				thr = minSegBytes(rails)
			}
		case rt.Hops > 1:
			rails = rails[:1]
		default:
			thr = 0
		}
		if thr > 0 && len(sr.Data) > thr {
			d.sendRndvStriped(sr, rails, h.SyncID)
			return
		}
	}
	data := header{
		Type:    PktRndv,
		SrcRank: sr.Env.Src,
		DstRank: sr.Dst,
		Len:     sr.Env.Len,
		SyncID:  h.SyncID,
	}
	body := sr.Data
	if body == nil {
		body = []byte{} // a zero-length synchronous send still ships its (empty) body block
	}
	d.proc.Spawn("ch_mad.rndvdata", func() {
		t0 := d.traceNow()
		err := d.emit(rt, data, body, nil, madeleine.SendCheaper)
		if d.Trace != nil {
			d.Trace.Span(d.TraceTrack, trace.KRndv, "rndv.body", t0, trace.Args{
				HasPeer: true, Src: int32(sr.Env.Src), Dst: int32(sr.Dst),
				Bytes: int64(len(sr.Data)), Seq: h.SyncID,
			})
		}
		sr.Err = err
		sr.Done.Fire()
	})
}

// minSegBytes is the smallest pacing segment any of the rails carries, 0
// when none does.
func minSegBytes(rails []Route) int {
	seg := 0
	for _, r := range rails {
		if r.SegBytes > 0 && (seg == 0 || r.SegBytes < seg) {
			seg = r.SegBytes
		}
	}
	return seg
}

// sendRndvStriped ships a rendez-vous body over multi-hop routes as a
// train of independent MAD_RNDVSEG_PKT messages (offset in the header,
// segment as a zero-copy body). Each gateway relays segments one at a
// time, so while segment k is re-emitted on the outbound hop, segment
// k+1 is already serializing on the inbound hop: a 2-hop transfer costs
// roughly one hop plus one segment instead of two full store-and-forward
// passes. The per-segment EndPacking paces injection, so the train never
// overruns the first hop.
//
// Given several rails (the destination's edge-disjoint route set) the
// train is striped across them: the body is cut into uniform segments (the
// smallest rail segment, so every rail's bottleneck constraint holds)
// dealt to whichever rail has the earliest predicted finish — pipeline
// fill (Route.Cost - Route.BottleneckCost) plus dealt segments times the
// bottleneck pace — so two rails with equal bottlenecks converge on an
// even split regardless of path length, with the first segments biased
// toward the shorter fill. Each segment's header carries its rail index
// (PathID) and the rail's hop budget; gateways keep the stripe on the
// matching budget-fitting rail of their own route set, and the receiver
// reassembles by offset exactly as for the single-rail pipeline.
func (d *Device) sendRndvStriped(sr *adi.SendReq, rails []Route, sync uint32) {
	seg := minSegBytes(rails)
	if seg == 0 {
		// No rail carries a pacing segment (shouldn't happen — the rail
		// installer backfills stripe segments): ship the whole body as a
		// single stripe rather than divide by zero below.
		seg = len(sr.Data)
	}
	// Per-rail pacing (the bottleneck hop's cost per segment) and fixed
	// pipeline fill (the rest of the path): the deal below hands each
	// segment to the rail with the earliest predicted finish, which
	// biases the first segments toward the short rail and converges to
	// bottleneck-proportional shares on long trains.
	pace := make([]float64, len(rails))
	fill := make([]float64, len(rails))
	for i, r := range rails {
		switch {
		case r.BottleneckCost > 0:
			pace[i] = r.BottleneckCost
		case r.Cost > 0:
			pace[i] = r.Cost
		default:
			pace[i] = 1
		}
		if r.Cost > pace[i] {
			fill[i] = r.Cost - pace[i]
		}
	}
	d.proc.Spawn("ch_mad.rndvstripe", func() {
		total := len(sr.Data)
		dealt := make([]float64, len(rails))
		for off := 0; off < total; off += seg {
			n := min(seg, total-off)
			// Earliest-predicted-finish round-robin (deterministic;
			// identical rails degrade to pure round-robin).
			rail := 0
			for i := 1; i < len(rails); i++ {
				if fill[i]+(dealt[i]+1)*pace[i] < fill[rail]+(dealt[rail]+1)*pace[rail] {
					rail = i
				}
			}
			dealt[rail]++
			rt := rails[rail]
			h := header{
				Type:    PktRndvSeg,
				SrcRank: sr.Env.Src,
				DstRank: sr.Dst,
				Len:     n,
				SyncID:  sync,
				Offset:  off,
				PathID:  rail,
				Budget:  rt.Hops,
			}
			t0 := d.traceNow()
			err := d.emit(rt, h, sr.Data[off:off+n], nil, madeleine.SendCheaper)
			if d.Trace != nil {
				d.Trace.Span(d.TraceTrack, trace.KRndv, "rndv.seg", t0, trace.Args{
					HasPeer: true, Src: int32(sr.Env.Src), Dst: int32(sr.Dst),
					Bytes: int64(n), Rail: int16(rail), Hop: int16(rt.Hops), Seq: sync, Val: int64(off),
				})
			}
			if err != nil {
				sr.Err = err
				sr.Done.Fire()
				return
			}
		}
		sr.Done.Fire()
	})
}

// inRndvBody lands rendez-vous data (Fig. 4b final step): the polling
// thread finds the rhandle from the sync_address in the header and the
// block goes straight to the user buffer at its offset — "avoiding any
// intermediate copies" — the whole body (MAD_RNDV_PKT: the segment
// [0, Len)) or one pipelined segment of a multi-hop transfer
// (MAD_RNDVSEG_PKT; segments may interleave with unrelated traffic). The
// rhandle completes, releasing the semaphore the main thread waits on, when
// the last byte lands. A truncating receive collects the body in a scratch
// whose prefix is copied out (charged) once, at completion, after the last
// packet's handling charge — a whole body and a segment train alike.
func (d *Device) inRndvBody(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	st := d.rndvRx[h.SyncID]
	if st == nil {
		panic(fmt.Sprintf("ch_mad[%d]: %s for unknown sync %d", d.rank, h.Type, h.SyncID))
	}
	n, lenErr := adi.CheckLen(st.r, st.env)
	landing, segErr := st.segLanding(h.Offset, h.Len, lenErr != nil)
	if segErr != nil {
		panic(fmt.Sprintf("ch_mad[%d]: sync %d from rank %d: %v", d.rank, h.SyncID, h.SrcRank, segErr))
	}
	d.unpackBody(conn, h, landing)
	done := st.segDone(h.Len)
	d.endReceive(ch, conn)
	if d.Trace != nil {
		name := "rndv.land"
		if h.Type == PktRndvSeg {
			name = "rndv.seg.land"
		}
		d.Trace.Instant(d.TraceTrack, trace.KRndv, name, trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank),
			Bytes: int64(h.Len), Rail: int16(h.PathID), Hop: int16(h.Budget),
			Seq: h.SyncID, Val: int64(h.Offset),
		})
	}
	if !done {
		return
	}
	delete(d.rndvRx, h.SyncID)
	if lenErr != nil {
		d.proc.Charge(ch.Params.CopyTime(n))
		copy(st.r.Buf, st.scratch[:n])
	}
	adi.FinishRecv(st.r, st.env, lenErr)
}

// maxRndvRetries bounds the busy-nack retry loop of one rendez-vous
// send: at the capped backoff this is several virtual seconds of
// refusals — a gateway that busy for that long is genuinely wedged, and
// a targeted send error beats hanging to the simulation deadline.
// retryBackoff is the first retry delay, doubled (capped) per attempt —
// long enough for a full gateway window to drain a couple of segments.
// Each sender additionally staggers every backoff by a rank-dependent
// offset: virtual time has no noise, so identically-refused senders
// would otherwise retry at the same instants and re-collide in lockstep
// forever.
const maxRndvRetries = 256

var (
	retryBackoff = 200 * vtime.Microsecond
	retryStagger = 37 * vtime.Microsecond
)

// inNack handles a relay refusal for a pending rendez-vous send. A
// NackNoRoute (a gateway on the path had no onward route — §6
// misconfiguration) fails the send with a proper MPI error instead of
// crashing the simulation; the Tag field carries the unreachable rank. A
// NackBusy (admission control: a gateway's bounded relay queue was full)
// re-issues the request after an exponential backoff — the closed-loop
// backpressure that keeps a hot gateway's queue from growing unboundedly.
func (d *Device) inNack(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	d.receive(ch, conn, h)
	tx, ok := d.rndvTx[h.ReqID]
	if !ok {
		return // already failed or completed; stale nack
	}
	sr, reqID := tx.sr, h.ReqID
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KCredit, "rndv.nack", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank),
			Seq: reqID, Val: int64(h.Context),
		})
	}
	if h.Context != NackBusy {
		d.failSend(reqID, fmt.Errorf("ch_mad: gateway rank %d has no route to rank %d (forwarding misconfigured)",
			h.SrcRank, h.Tag))
		return
	}
	if tx.attempts >= maxRndvRetries {
		d.failSend(reqID, fmt.Errorf("ch_mad: gateway rank %d relay queue full for rank %d (gave up after %d retries)",
			h.SrcRank, h.Tag, tx.attempts))
		return
	}
	backoff := retryBackoff<<min(tx.attempts, 6) + vtime.Duration(d.rank%16)*retryStagger
	tx.attempts++
	d.rndvTx[reqID] = tx
	d.NRndvRetries++
	d.proc.Spawn("ch_mad.rndvretry", func() {
		d.proc.Sleep(backoff)
		if d.rndvTx[reqID].sr != sr {
			return // completed or failed while backing off
		}
		rt, ok := d.RouteTo(sr.Dst)
		if !ok {
			d.failSend(reqID, fmt.Errorf("ch_mad: rank %d lost its route to rank %d during retry", d.rank, sr.Dst))
			return
		}
		if err := d.sendHeaderOnly(rt, requestHeader(sr, reqID)); err != nil {
			d.failSend(reqID, err)
		}
	})
}
