package core

import (
	"fmt"

	"mpichmad/internal/madeleine"
	"mpichmad/internal/trace"
)

// RelayQueueDepth returns the live pressure on this device's relay queue:
// bodies currently held for re-emission plus polling threads parked (or
// about to park) waiting for a credit. The adaptive planner's congestion
// signal.
func (d *Device) RelayQueueDepth() int {
	return d.relayInFlight + d.relayParking
}

// TakeRelayHigh returns the relay queue-depth high-water mark observed
// since the previous call (or since Start) and resets it — what a
// re-plan at a collective boundary feeds into route edge costs.
func (d *Device) TakeRelayHigh() int {
	h := d.relayHighSince
	d.relayHighSince = 0
	return h
}

// noteRelayDepth records queue-depth peaks for both the bound check
// (RelayQueuePeak tracks held bodies only) and the congestion signal
// (relayHighSince includes parked waiters).
func (d *Device) noteRelayDepth() {
	if d.relayInFlight > d.RelayQueuePeak {
		d.RelayQueuePeak = d.relayInFlight
	}
	if depth := d.RelayQueueDepth(); depth > d.relayHighSince {
		d.relayHighSince = depth
	}
}

// forward relays a message addressed to another rank toward its
// destination (the §6 forwarding extension): store-and-forward at the
// gateway, on a temporary thread. With a RelayWindow configured the
// store is bounded by a credit window: body packets must take a credit
// before they are drained off the wire (a full gateway parks the polling
// thread, backpressuring the inbound channel), and rendez-vous requests
// are refused with a busy nack instead of admitting a transfer the queue
// has no room for. Striped segments are re-emitted on the rail their
// PathID names.
func (d *Device) forward(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	arrivedBudget := h.Budget // pre-decrement, for the relay-hop span's tag
	if h.Budget > 0 {
		h.Budget-- // one hop of the planned rail consumed by this relay
	}
	// The store is the body block itself, taken off the wire once it has
	// a credit. Only a non-empty body occupies the store-and-forward
	// queue: header-only control forwards (SendOK, nacks, admitted
	// requests) and the empty body of a zero-length synchronous send hold
	// no credit, so they do not count toward the bounded depth.
	wire := 0
	if h.carriesBody() {
		wire = d.bodyWireLen(h)
	}
	stored := wire > 0

	rt, ok := d.railFor(h, conn.Remote)
	if !ok {
		if body := d.receive(ch, conn, h); body != nil {
			body.Release()
		}
		d.relayNoRoute(h)
		return
	}

	bounded := d.relayCredits != nil
	switch {
	case bounded && h.Type == PktRequest && d.RelayQueueDepth() >= d.RelayWindow:
		// Admission control: a full gateway refuses to open a new
		// rendez-vous through itself — the body would have nowhere to
		// queue. The sender backs off and retries.
		d.receive(ch, conn, h)
		d.NRelayBusy++
		d.Metrics.Add("relay.busynack", d.MetricsLabel, 1)
		if d.Trace != nil {
			d.Trace.Instant(d.TraceTrack, trace.KCredit, "relay.busy", trace.Args{
				HasPeer: true, Src: int32(h.SrcRank), Dst: int32(h.DstRank),
				Seq: h.ReqID, Val: int64(d.RelayQueueDepth()),
			})
		}
		d.nackSender(h, NackBusy)
		return
	case bounded && stored:
		if !d.relayCredits.TryAcquire() {
			// Defer: park the polling thread until a credit frees. The
			// inbound channel stalls behind us — the modeled backpressure
			// on upstream senders.
			d.NRelayDeferred++
			d.Metrics.Add("relay.deferred", d.MetricsLabel, 1)
			w0 := d.traceNow()
			d.relayParking++
			d.noteRelayDepth()
			d.relayCredits.Acquire()
			d.relayParking--
			if d.Trace != nil {
				d.Trace.Span(d.TraceTrack, trace.KCredit, "relay.credit.wait", w0, trace.Args{
					HasPeer: true, Src: int32(h.SrcRank), Dst: int32(h.DstRank),
					Bytes: int64(wire),
				})
			}
		}
	}

	body := d.receive(ch, conn, h) // drained off the wire: bounded by the credit window
	d.NForwarded++
	d.RelayBytes += uint64(wire)
	d.Metrics.Add("relay.msgs", d.MetricsLabel, 1)
	d.Metrics.Add("relay.bytes", d.MetricsLabel, int64(wire))
	if stored {
		d.relayInFlight++
		d.noteRelayDepth()
		d.Metrics.SetMax("relay.qpeak", d.MetricsLabel, int64(d.relayInFlight))
		if d.Trace != nil {
			d.Trace.Counter(d.TraceTrack, trace.KRelay, "relay.depth", int64(d.RelayQueueDepth()))
		}
	}
	// Re-emit on the outbound channel (forward), off the polling thread.
	d.proc.Spawn("ch_mad.forward", func() {
		t0 := d.traceNow()
		err := d.emit(rt, h, nil, body, madeleine.SendLater)
		if stored {
			d.relayInFlight--
			if bounded {
				d.relayCredits.Release()
			}
		}
		if d.Trace != nil {
			d.Trace.Span(d.TraceTrack, trace.KRelay, "relay.hop", t0, trace.Args{
				HasPeer: true, Src: int32(h.SrcRank), Dst: int32(h.DstRank),
				Bytes: int64(wire), Rail: int16(h.PathID), Hop: int16(arrivedBudget),
				Seq: h.SyncID, GW: rt.Channel.Name,
			})
			if stored {
				d.Trace.Counter(d.TraceTrack, trace.KRelay, "relay.depth", int64(d.RelayQueueDepth()))
			}
		}
		if err != nil {
			panic(fmt.Sprintf("ch_mad[%d]: forward: %v", d.rank, err))
		}
	})
}

// railFor picks the onward route for a relayed message without carrying
// full source routes in the header: prefer the rail matching the
// stripe's PathID, but never one that hands the message straight back to
// the node it came from, and — when the segment carries a hop budget —
// never one whose path is longer than the budget the planned rail has
// left. Under a stable plan the budget check keeps a stripe on a
// *suffix* of its planned rail: a gateway whose PathID-indexed rail is a
// detour (its own alternates need not mirror the sender's) falls back to
// a rail that still fits, ultimately the direct hop, so the segment
// never takes more hops than its rail was planned with. If a mid-flight
// Replan swapped the rails out from under an in-flight stripe, no rail
// may fit the stale budget (or every rail may backtrack); delivery then
// beats purity — the shortest non-backtracking rail, or as a last resort
// the preferred rail, carries the segment at the price of extra hops. A
// lone rail is preferred rail and last resort alike.
func (d *Device) railFor(h header, from string) (Route, bool) {
	rails := d.Rails(h.DstRank)
	if len(rails) == 0 {
		return Route{}, false
	}
	pref := h.PathID % len(rails)
	fits := func(rt Route) bool {
		return h.Budget <= 0 || rt.Hops <= h.Budget
	}
	if rt := rails[pref]; rt.NextNode != from && fits(rt) {
		return rt, true
	}
	for _, rt := range rails {
		if rt.NextNode != from && fits(rt) {
			return rt, true
		}
	}
	// Replan transient: no rail honors the stale budget. Take the most
	// direct escape that at least avoids the immediate sender.
	best, found := Route{}, false
	for _, rt := range rails {
		if rt.NextNode != from && (!found || rt.Hops < best.Hops) {
			best, found = rt, true
		}
	}
	if found {
		return best, true
	}
	return rails[pref], true
}

// nackSender refuses a relayed rendez-vous request back to its sender
// with the given reason code (carried in the nack's Context field).
func (d *Device) nackSender(h header, reason int) {
	back, ok := d.RouteTo(h.SrcRank)
	if !ok {
		return // cannot even reach the sender; the counters record it
	}
	nack := header{
		Type:    PktNack,
		SrcRank: d.rank,
		DstRank: h.SrcRank,
		Tag:     h.DstRank, // the refused rank, for the error message
		Context: reason,
		ReqID:   h.ReqID,
	}
	d.proc.Spawn("ch_mad.nack", func() {
		if err := d.sendHeaderOnly(back, nack); err != nil {
			panic(fmt.Sprintf("ch_mad[%d]: nack: %v", d.rank, err))
		}
	})
}

// relayNoRoute handles a relayed message this gateway has no onward route
// for (misconfigured multi-hop topology). Rendez-vous requests are nacked
// back to the sender, whose MPI Send then fails with a proper error;
// anything else is counted and dropped — the sender of an eager message
// already completed locally, so there is no request left to fail, and a
// hung receive under a broken topology beats crashing every rank.
func (d *Device) relayNoRoute(h header) {
	d.NRelayDrops++
	d.Metrics.Add("relay.drops", d.MetricsLabel, 1)
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRelay, "relay.drop", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(h.DstRank),
		})
	}
	if h.Type == PktRequest {
		d.nackSender(h, NackNoRoute)
	}
}
