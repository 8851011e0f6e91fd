package core

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// Device is the ch_mad MPICH device of one process. It satisfies
// adi.Device and handles all inter-node traffic of that process over any
// number of networks simultaneously.
//
// Its protocol state is three tables — the rail cache (routes.go), the
// send-side and the receive-side rendez-vous tables (rndv.go) — plus the
// relay credit window (relay.go). AuditInvariants checks that the two
// rendez-vous tables are empty and every credit is home once a session has
// drained.
type Device struct {
	proc *marcel.Proc
	eng  *adi.Engine
	rank int

	channels []*madeleine.Channel

	// rails caches, per destination rank, the ordered set of edge-disjoint
	// routes toward it: rails[dst][0] is the primary route (what Send and
	// control traffic use), the rest are the extra rails the striper
	// spreads large rendez-vous bodies over and relaying gateways pick from
	// by the header's PathID. A cached empty set is a destination known to
	// be unroutable. Destinations not cached yet are resolved on first use
	// through railSource, when one is set (SetRailSource), so a 1000-rank
	// session only ever holds the pairs that actually talk.
	rails      map[int][]Route
	railSource func(dst int) []Route

	// switchPoint is the device-wide eager->rendez-vous threshold elected
	// by ElectSwitchPoint — the single value the ADI's MPID_Device
	// structure historically allowed (§4.2.2). With the per-link device
	// mux it is only the fallback: Send resolves the threshold per
	// destination (SwitchPointTo) from the route's SwitchBytes and any
	// measured per-class override, unless SetSwitchPoint forced a uniform
	// value.
	switchPoint int

	// forcedSwitch records that SetSwitchPoint explicitly overrode the
	// threshold (ablation X1, and the uniform ch_mad-only ablation pinning
	// the elected value): the forced value then governs every link, like
	// the historical single-threshold MPID_Device.
	forcedSwitch bool

	// classSwitch holds measured per-device-class threshold overrides
	// installed by the autotuner (adi.ClassTuner); they take precedence
	// over the route's native SwitchBytes for links of that class.
	classSwitch map[string]int

	// MonolithicEager reverts the §4.2.2 header/body split to the naive
	// scheme: eager data is copied into a constant-size
	// MPID_PKT_MAX_DATA_SIZE buffer that is transmitted whole, padding
	// and all. Only used by the X2 ablation benchmark.
	MonolithicEager bool

	// RelayPipelining enables the segmented multi-hop rendez-vous path
	// (on by default). Off, large bodies cross each gateway whole —
	// the original store-and-forward §6 behaviour (ablation/benchmarks).
	RelayPipelining bool

	// RelayStriping enables striping large multi-hop rendez-vous bodies
	// across a destination's edge-disjoint rails (on by default; only
	// takes effect when the routing layer installed more than one rail).
	// Segments are dealt cost-weighted round-robin, tagged with the rail
	// index (header PathID), and reassembled by offset at the receiver.
	RelayStriping bool

	// RelayWindow bounds this device's store-and-forward queue: at most
	// this many relayed bodies may be held for re-emission concurrently
	// (the gateway's credit window). Zero leaves the queue unbounded. When
	// the window is full, a relayed rendez-vous REQUEST is refused with a
	// busy nack (the sender backs off and retries — new transfers are not
	// admitted through a full gateway) and in-flight body packets defer
	// the polling thread until a credit frees, which backpressures the
	// inbound channel. Set before Start.
	RelayWindow int

	// Trace, when set, records the packet lifecycle (eager send/recv,
	// RNDV request->ack->body, relay hops, credit waits) on TraceTrack
	// (the owning rank's track). Metrics aggregates counters per device
	// class and — under MetricsLabel, the gateway's display name cached
	// once at wiring time so hot paths never format strings — per
	// gateway. Both are nil-safe: a nil Trace/Metrics costs one branch
	// per site. Set by the cluster wiring before Start.
	Trace        *trace.Tracer
	TraceTrack   int
	Metrics      *trace.Registry
	MetricsLabel string

	nextReq  uint32
	nextSync uint32
	rndvTx   map[uint32]rndvSend   // ReqID -> send awaiting its SendOK
	rndvRx   map[uint32]*rndvState // SyncID -> matched receive awaiting its body

	// Counters for tests and experiment reports.
	NEager, NRndv, NForwarded uint64
	// RelayBytes counts body bytes this device relayed for other ranks.
	// NRelayDrops counts relayed messages dropped for lack of an onward
	// route (rendez-vous requests are additionally nacked back to the
	// sender; other packet types are silently dropped — see relayNoRoute).
	// A full relay queue never drops: it defers or busy-nacks.
	RelayBytes  uint64
	NRelayDrops uint64
	// NRelayDeferred counts relayed bodies that had to wait for a relay
	// credit (the bounded queue was full); NRelayBusy counts rendez-vous
	// requests refused with a busy nack. NRndvRetries counts this
	// device's own sends that were busy-nacked and retried.
	NRelayDeferred uint64
	NRelayBusy     uint64
	NRndvRetries   uint64
	// RelayQueuePeak is the peak number of concurrently outstanding
	// forward re-emissions — the gateway's store-and-forward queue depth.
	// With a RelayWindow configured it never exceeds the window.
	RelayQueuePeak int
	relayInFlight  int
	relayParking   int        // polling threads parked (or about to park) for a credit
	relayCredits   *vtime.Sem // nil when RelayWindow == 0
	relayHighSince int        // queue-depth high-water since TakeRelayHigh
}

// New creates a ch_mad device for one process. Channels are added with
// AddChannel and destinations with SetRails/SetRailSource; call
// Start once wiring is complete to launch the per-channel polling threads
// (§4.2.3).
func New(p *marcel.Proc, eng *adi.Engine, rank int) *Device {
	return &Device{
		proc:            p,
		eng:             eng,
		rank:            rank,
		RelayPipelining: true,
		RelayStriping:   true,
		rails:           make(map[int][]Route),
		classSwitch:     make(map[string]int),
		rndvTx:          make(map[uint32]rndvSend),
		rndvRx:          make(map[uint32]*rndvState),
	}
}

// Name implements adi.Device.
func (d *Device) Name() string { return "ch_mad" }

// AddChannel registers a Madeleine channel (one per network protocol).
func (d *Device) AddChannel(ch *madeleine.Channel) {
	d.channels = append(d.channels, ch)
}

// Channels returns the registered channels (for tests and experiments).
//
//madlint:ignore deadexport bench/ uses it
func (d *Device) Channels() []*madeleine.Channel { return d.channels }

// Start launches one polling thread per channel ("we assign one thread
// per Madeleine channel", §4.1). Polling threads are daemons: they live
// from MPI_Init to the end of the program.
func (d *Device) Start() {
	if d.switchPoint == 0 {
		d.ElectSwitchPoint()
	}
	if d.RelayWindow > 0 {
		d.relayCredits = vtime.NewSem(d.proc.S, fmt.Sprintf("ch_mad[%d].relay", d.rank), d.RelayWindow)
	}
	for _, ch := range d.channels {
		d.proc.SpawnDaemon("ch_mad.poll."+ch.Name, func() { d.pollLoop(ch) })
	}
}

// Shutdown implements adi.Device. It has nothing to tear down: channels
// stay open because a gateway may still have to forward traffic for other
// ranks after its own MPI_Finalize barrier (§6 extension), and polling
// threads are daemons reaped when the simulation's application tasks
// finish.
func (d *Device) Shutdown() {}

// Send implements adi.Device: select the transfer mode by message size
// ("the mode selection is dynamically performed, according to the message
// size", §4.1) and run it. May block in virtual time until the send is
// locally complete for the eager path; rendez-vous completion is signalled
// asynchronously via sr.Done.
func (d *Device) Send(sr *adi.SendReq) {
	rt, ok := d.RouteTo(sr.Dst)
	if !ok {
		sr.Err = fmt.Errorf("ch_mad: rank %d has no route to rank %d", d.rank, sr.Dst)
		sr.Done.Fire()
		return
	}
	if !sr.Sync && len(sr.Data) <= d.SwitchPointTo(sr.Dst) {
		d.sendEager(sr, rt)
		return
	}
	d.sendRndvRequest(sr, rt)
}

// sendHeaderOnly ships a body-less control message (REQUEST/SENDOK/TERM):
// "the other messages do not have a body (thus avoiding unnecessary and
// expensive pack operations)" (§4.2.1).
func (d *Device) sendHeaderOnly(rt Route, h header) error {
	return d.emit(rt, h, nil, nil, madeleine.SendCheaper)
}

// emit is the one place a ch_mad message is put on the wire: the header as
// an EXPRESS block, then the body as one CHEAPER block in the given send
// mode (the §4.2.2 header/body split), on the route's channel toward its
// next hop. The body is either user memory (body, lent to the message: it
// is read until EndPacking returns and not a moment longer, so the request
// may complete as soon as emit does) or a wire buffer the device already
// owns (owned — a gateway's relay store — which emit hands over whatever
// happens); both nil ships the header alone. The header is encoded in place,
// in the head packet's aggregation area.
func (d *Device) emit(rt Route, h header, body []byte, owned *netsim.Buf, mode madeleine.SendMode) error {
	conn, err := rt.Channel.BeginPacking(rt.NextNode)
	var hb []byte
	if err == nil {
		hb, err = conn.PackExpress(HeaderSize)
	}
	if err != nil {
		if owned != nil {
			owned.Release()
		}
		return err
	}
	if h.put(hb); owned != nil {
		err = conn.PackOwned(owned, mode, madeleine.ReceiveCheaper)
	} else if body != nil {
		err = conn.Pack(body, mode, madeleine.ReceiveCheaper)
	}
	if err != nil {
		return err
	}
	return conn.EndPacking()
}

// receive is the one place a ch_mad message is taken off the wire once
// pollLoop has read its header: the body block, when the packet carries
// one (header.carriesBody), is taken — the caller owns the returned buffer,
// exactly the block's wire length, and releases it; nil for a header-only
// packet — the message is ended, and the per-message device overhead
// measured in §5.2–§5.4 (dispatch, queue management, semaphore wakeup) is
// charged. inRndvBody alone lands its body straight in the user's buffer
// instead (unpackBody), and charges a truncation copy only after
// endReceive: designating the address is what lets Madeleine copy the body
// once, from the sender's buffer to there, where a taker costs a wire
// buffer and a second copy out of it.
func (d *Device) receive(ch *madeleine.Channel, conn *madeleine.Connection, h header) *netsim.Buf {
	var body *netsim.Buf
	if h.carriesBody() {
		var err error
		if body, err = conn.Take(d.bodyWireLen(h), d.bodySendMode(h), madeleine.ReceiveCheaper); err != nil {
			panic(fmt.Sprintf("ch_mad[%d]: %s body: %v", d.rank, h.Type, err))
		}
	}
	d.endReceive(ch, conn)
	return body
}

func (d *Device) unpackBody(conn *madeleine.Connection, h header, landing []byte) {
	if err := conn.Unpack(landing, d.bodySendMode(h), madeleine.ReceiveCheaper); err != nil {
		panic(fmt.Sprintf("ch_mad[%d]: %s body: %v", d.rank, h.Type, err))
	}
}

// bodySendMode is the send mode the body block of a packet travels in: a
// monolithic eager packet ships a buffer the device filled itself.
func (d *Device) bodySendMode(h header) madeleine.SendMode {
	if h.Type == PktShort && d.MonolithicEager {
		return madeleine.SendLater
	}
	return madeleine.SendCheaper
}

func (d *Device) endReceive(ch *madeleine.Channel, conn *madeleine.Connection) {
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.proc.Charge(ch.Params.DeviceHandling)
}

// traceNow is the start stamp of a span about to be recorded (zero, and
// never read, when tracing is off).
func (d *Device) traceNow() vtime.Time {
	if d.Trace == nil {
		return 0
	}
	return d.proc.S.Now()
}

// pollLoop is one channel's polling thread (§4.2.3): receive each message
// head, dispatch on packet type. It never sends directly — sends triggered
// by incoming packets run on temporary threads, "because deadlock
// situations might appear" if the poller blocked in a send.
func (d *Device) pollLoop(ch *madeleine.Channel) {
	// One header landing buffer for the lifetime of the polling thread:
	// Unpack copies the express block out of the head packet synchronously
	// and only this thread writes hbuf, so reusing it is safe and saves an
	// allocation per received message.
	hbuf := make([]byte, HeaderSize)
	for {
		conn, err := ch.BeginUnpacking()
		if err != nil {
			panic(fmt.Sprintf("ch_mad[%d] poll %s: %v", d.rank, ch.Name, err))
		}
		if err := conn.Unpack(hbuf, madeleine.SendCheaper, madeleine.ReceiveExpress); err != nil {
			panic(fmt.Sprintf("ch_mad[%d] poll %s: %v", d.rank, ch.Name, err))
		}
		h, err := decodeHeader(hbuf)
		if err != nil {
			panic(err)
		}
		if h.Type == PktTerm {
			conn.EndUnpacking()
			return
		}
		if h.DstRank != d.rank {
			d.forward(ch, conn, h)
			continue
		}
		switch h.Type {
		case PktShort:
			d.inShort(ch, conn, h)
		case PktRequest:
			d.inRequest(ch, conn, h)
		case PktSendOK:
			d.inSendOK(ch, conn, h)
		case PktRndv, PktRndvSeg:
			d.inRndvBody(ch, conn, h)
		case PktNack:
			d.inNack(ch, conn, h)
		default:
			panic(fmt.Sprintf("ch_mad[%d]: unexpected %s on %s", d.rank, h.Type, ch.Name))
		}
	}
}

var _ adi.Device = (*Device)(nil)
