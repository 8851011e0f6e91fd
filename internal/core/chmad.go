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

// Route tells the device how to reach a destination rank: which Madeleine
// channel to use and the next-hop node on that channel. When the next hop
// is a gateway (forwarding extension, §6), NextNode differs from the
// destination's own node and intermediate devices relay the message.
type Route struct {
	Channel  *madeleine.Channel
	NextNode string

	// Hops is the full path length to the destination as computed by the
	// routing subsystem (internal/route): 1 for a direct neighbour, more
	// when gateways relay. Zero means unknown (treated as direct).
	Hops int

	// SegBytes is the relay pipelining segment for multi-hop routes: the
	// bottleneck network's recommended pipeline segment along the path.
	// Rendez-vous bodies larger than this are shipped as independent
	// per-segment messages so gateways overlap inbound and outbound
	// transfers instead of store-and-forwarding the whole body. Zero
	// disables segmentation.
	SegBytes int

	// Cost is the planner's wire cost of the full path in seconds at the
	// reference payload (route.Plan.PathCostOf): what rail installation
	// ranks and caps alternates by. Zero means unknown.
	Cost float64

	// BottleneckCost is the most expensive single hop of the path at the
	// reference payload (route.Plan.PathBottleneckOf) — the pacing rate
	// of a pipelined segment train on this rail. The striper weights each
	// rail's share by 1/BottleneckCost (falling back to 1/Cost, then
	// equal shares): two rails whose bottleneck is one bridge each split
	// evenly no matter how many cheap hops the longer one adds.
	BottleneckCost float64

	// SwitchBytes is the per-link eager->rendez-vous threshold of this
	// route: the smallest native switch point of the networks along the
	// path (route.Plan.PathSwitchOf), so a payload at or below it rides
	// the eager path on every hop. Zero means unknown; the device falls
	// back to its elected device-wide threshold.
	SwitchBytes int

	// Class names the route's device class ("smp", "san", "wan" — the
	// dominating tier along the path, route.Plan.PathClassOf), letting
	// measured per-class threshold overrides apply to the right links.
	// Empty means unclassified.
	Class string
}

// Device is the ch_mad MPICH device of one process. It satisfies
// adi.Device and handles all inter-node traffic of that process over any
// number of networks simultaneously.
type Device struct {
	proc *marcel.Proc
	eng  *adi.Engine
	rank int

	channels []*madeleine.Channel
	routes   map[int]Route
	// rails, when a destination has them, is the full ordered set of
	// edge-disjoint routes toward it (rails[dst][0] == routes[dst]); the
	// striper spreads large multi-hop rendez-vous bodies across them and
	// relaying gateways keep stripes on the rail the header's PathID
	// names. Destinations without an entry have the single primary route.
	rails map[int][]Route

	// railSource, when set, resolves a destination's rails on first use
	// (SetRailSource): routes/rails then act as the cache of resolved
	// destinations, so a 1000-rank session never installs the quadratic
	// all-pairs route table — only the pairs that actually talk. A
	// destination the source resolves to nothing is remembered in railMiss
	// so unroutable sends stay O(1) too.
	railSource func(dst int) []Route
	railMiss   map[int]bool

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
	// (the gateway's credit window). Zero keeps the historical unbounded
	// queue. When the window is full, a relayed rendez-vous REQUEST is
	// refused with a busy nack (the sender backs off and retries — new
	// transfers are not admitted through a full gateway) and in-flight
	// body packets defer the polling thread until a credit frees, which
	// backpressures the inbound channel. Set before Start.
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
	pending  map[uint32]*adi.SendReq // ReqID -> rndv send awaiting OK
	retries  map[uint32]int          // ReqID -> busy-nack retry count
	rndvRx   map[uint32]*rndvState   // SyncID -> matched receive

	stopped bool

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
	// relayWindowHinted marks RelayWindow as tuner-installed
	// (SetRelayWindowHint); later hints only ever widen it.
	relayWindowHinted bool
}

// rndvState is the receiver-side rendez-vous bookkeeping: the paper's
// MPID_RNDV_T synchronization structure (a semaphore plus the owning
// rhandle); here the rhandle's Done event plays the semaphore.
type rndvState struct {
	r   *adi.RecvReq
	env adi.Envelope

	// remaining tracks outstanding body bytes when the data arrives as
	// pipelined segments (PktRndvSeg); scratch is the landing area for
	// truncating receives, allocated on first need.
	remaining int
	scratch   []byte
}

// segLanding returns the landing area for one pipelined segment
// [offset, offset+n) of the body. Truncating receives land in a scratch
// buffer sized to the announced body; either way the bounds are validated
// against that announcement, so a corrupted header surfaces as a protocol
// error instead of a slice panic deep in the poll loop.
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

// New creates a ch_mad device for one process. Channels are added with
// AddChannel and destinations with AddRoute; call Start once wiring is
// complete to launch the per-channel polling threads (§4.2.3).
func New(p *marcel.Proc, eng *adi.Engine, rank int) *Device {
	return &Device{
		proc:            p,
		eng:             eng,
		rank:            rank,
		RelayPipelining: true,
		RelayStriping:   true,
		routes:          make(map[int]Route),
		rails:           make(map[int][]Route),
		pending:         make(map[uint32]*adi.SendReq),
		retries:         make(map[uint32]int),
		rndvRx:          make(map[uint32]*rndvState),
	}
}

// Name implements adi.Device.
func (d *Device) Name() string { return "ch_mad" }

// Rank returns the owning process's world rank.
func (d *Device) Rank() int { return d.rank }

// AddChannel registers a Madeleine channel (one per network protocol).
func (d *Device) AddChannel(ch *madeleine.Channel) {
	d.channels = append(d.channels, ch)
}

// AddRoute maps a destination world rank to a channel and next-hop node
// (the single primary route; any previously installed rails are replaced).
func (d *Device) AddRoute(rank int, r Route) {
	d.routes[rank] = r
	delete(d.rails, rank)
	delete(d.railMiss, rank)
}

// SetRailSource installs a lazy rail resolver and drops every cached
// route: subsequent lookups resolve destinations on first use through fn
// and cache the result. Called by the cluster wiring at build time and
// again on every re-plan (the reinstall-everything of the eager scheme
// becomes an O(1) cache flush).
func (d *Device) SetRailSource(fn func(dst int) []Route) {
	d.railSource = fn
	d.routes = make(map[int]Route)
	d.rails = make(map[int][]Route)
	d.railMiss = make(map[int]bool)
}

// ensureRoute resolves dst through the rail source if it is not cached
// yet. Resolution is pure computation (no virtual-time events), so it is
// safe from polling threads and cannot perturb schedule determinism —
// lazily resolved sessions replay eager sessions exactly.
func (d *Device) ensureRoute(dst int) {
	if d.railSource == nil || d.railMiss[dst] {
		return
	}
	if _, ok := d.routes[dst]; ok {
		return
	}
	rs := d.railSource(dst)
	if len(rs) == 0 {
		d.railMiss[dst] = true
		return
	}
	d.routes[dst] = rs[0]
	if len(rs) > 1 {
		d.rails[dst] = append([]Route(nil), rs...)
	}
}

// SetRails installs the full ordered set of edge-disjoint routes toward a
// destination: rs[0] becomes the primary route (what Send and control
// traffic use), the rest are the extra rails the striper spreads large
// rendez-vous bodies over. Called by the cluster wiring and by adaptive
// re-plans; an empty rs removes the destination entirely.
func (d *Device) SetRails(rank int, rs []Route) {
	delete(d.railMiss, rank)
	if len(rs) == 0 {
		delete(d.routes, rank)
		delete(d.rails, rank)
		return
	}
	d.routes[rank] = rs[0]
	if len(rs) == 1 {
		delete(d.rails, rank)
		return
	}
	d.rails[rank] = append([]Route(nil), rs...)
}

// Rails returns every installed route toward a destination, primary
// first; nil when the destination is unroutable.
func (d *Device) Rails(rank int) []Route {
	d.ensureRoute(rank)
	if rs, ok := d.rails[rank]; ok {
		return rs
	}
	if rt, ok := d.routes[rank]; ok {
		return []Route{rt}
	}
	return nil
}

// Channels returns the registered channels (for tests and experiments).
func (d *Device) Channels() []*madeleine.Channel { return d.channels }

// RouteTo returns the route used to reach a destination world rank,
// ok=false when the destination is unroutable from this process.
func (d *Device) RouteTo(dst int) (Route, bool) {
	d.ensureRoute(dst)
	rt, ok := d.routes[dst]
	return rt, ok
}

// RouteNet returns the network metadata of the channel that carries
// traffic toward dst: the channel name and its calibrated cost model.
// Topology-aware layers (hierarchy discovery, tuning tables, diagnostics)
// use it to tell fast intra-cluster routes from slow backbone ones.
func (d *Device) RouteNet(dst int) (name string, params netsim.Params, ok bool) {
	rt, ok := d.RouteTo(dst)
	if !ok || rt.Channel == nil {
		return "", netsim.Params{}, false
	}
	return rt.Channel.Name, rt.Channel.Params, true
}

// ElectSwitchPoint applies the §4.2.2 policy to pick the device's single
// threshold: "the switch point value for the ch_mad device is 8 KB if SCI
// is a network supported within the material configuration. If not, the
// switch point of the most performant network is elected."
func (d *Device) ElectSwitchPoint() int {
	best := 0
	var bestBW float64 = -1
	for _, ch := range d.channels {
		p := ch.Params
		if p.Protocol == "sisci" {
			d.switchPoint = p.SwitchPoint
			return d.switchPoint
		}
		if p.Bandwidth > bestBW {
			bestBW = p.Bandwidth
			best = p.SwitchPoint
		}
	}
	if best == 0 {
		best = 64 << 10
	}
	d.switchPoint = best
	return best
}

// SetSwitchPoint overrides the elected threshold (ablation X1) with a
// uniform value that then governs every link, per-link resolution
// included.
func (d *Device) SetSwitchPoint(n int) {
	d.switchPoint = n
	d.forcedSwitch = true
}

// SwitchPoint implements adi.Device: the device-wide fallback threshold.
func (d *Device) SwitchPoint() int { return d.switchPoint }

// SwitchPointTo implements adi.LinkTuner: the eager->rendez-vous
// threshold for the link toward dst. Resolution order: a forced uniform
// value (SetSwitchPoint), then a measured per-class
// override for the route's device class, then the route's native
// SwitchBytes (smallest switch point along its path), then the elected
// device-wide fallback.
func (d *Device) SwitchPointTo(dst int) int {
	if d.forcedSwitch {
		return d.switchPoint
	}
	rt, ok := d.RouteTo(dst)
	if !ok {
		return d.switchPoint
	}
	if rt.Class != "" {
		if sp, ok := d.classSwitch[rt.Class]; ok && sp > 0 {
			return sp
		}
	}
	if rt.SwitchBytes > 0 {
		return rt.SwitchBytes
	}
	return d.switchPoint
}

// SetClassSwitchPoint implements adi.ClassTuner: install (or with
// bytes <= 0 remove) a measured threshold override for every link of a
// device class.
func (d *Device) SetClassSwitchPoint(class string, bytes int) {
	if d.classSwitch == nil {
		d.classSwitch = make(map[string]int)
	}
	if bytes <= 0 {
		delete(d.classSwitch, class)
		return
	}
	d.classSwitch[class] = bytes
}

// SetRelayWindowHint implements adi.RelayTuner: adopt a measured
// bandwidth-delay-product credit window for the store-and-forward queue
// when this device fronts the named network. A gateway bridging several
// tuned backbones keeps the largest window offered — throttling the fat
// pipe to the thin one's product would only idle the fat pipe. After
// Start the semaphore is rebuilt at the new capacity, but only while the
// relay queue is idle (credits all home); mid-traffic hints keep the old
// window rather than strand or mint credits.
func (d *Device) SetRelayWindowHint(net string, window int) {
	if window <= 0 || window == d.RelayWindow {
		return
	}
	attached := false
	for _, ch := range d.channels {
		if ch.Net.Name == net {
			attached = true
			break
		}
	}
	if !attached {
		return
	}
	if d.relayWindowHinted && window < d.RelayWindow {
		return
	}
	d.relayWindowHinted = true
	d.RelayWindow = window
	if d.relayCredits != nil {
		if d.relayInFlight > 0 || d.relayParking > 0 {
			return
		}
		d.relayCredits = vtime.NewSem(d.proc.S, fmt.Sprintf("ch_mad[%d].relay", d.rank), window)
	}
}

// ClassSwitchPoints returns the installed per-class threshold overrides
// (tests, diagnostics); nil when none were installed.
func (d *Device) ClassSwitchPoints() map[string]int {
	if d.classSwitch == nil {
		return nil
	}
	out := make(map[string]int, len(d.classSwitch))
	for k, v := range d.classSwitch {
		out[k] = v
	}
	return out
}

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
		ch := ch
		d.proc.SpawnDaemon("ch_mad.poll."+ch.Name, func() { d.pollLoop(ch) })
	}
}

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

// Shutdown implements adi.Device. It only marks the device stopped:
// channels stay open because a gateway may still have to forward traffic
// for other ranks after its own MPI_Finalize barrier (§6 extension), and
// polling threads are daemons reaped when the simulation's application
// tasks finish.
func (d *Device) Shutdown() {
	d.stopped = true
}

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
			d.proc.Compute(rt.Channel.Params.CopyTime(len(sr.Data)))
			copy(body, sr.Data)
		}
	}
	err := d.emit(rt, h, body, d.eagerBodySendMode())
	if d.Trace != nil {
		d.Trace.Span(d.TraceTrack, trace.KPkt, "eager.send", t0, trace.Args{
			HasPeer: true, Src: int32(sr.Env.Src), Dst: int32(sr.Dst),
			Bytes: int64(len(sr.Data)), Class: rt.Class,
		})
	}
	sr.Err = err
	sr.Done.Fire()
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
	d.pending[id] = sr
	h := header{
		Type:    PktRequest,
		SrcRank: sr.Env.Src,
		DstRank: sr.Dst,
		Tag:     sr.Env.Tag,
		Context: sr.Env.Context,
		Len:     sr.Env.Len,
		ReqID:   id,
	}
	if err := d.sendHeaderOnly(rt, h); err != nil {
		delete(d.pending, id)
		sr.Err = err
		sr.Done.Fire()
	}
}

// sendHeaderOnly ships a body-less control message (REQUEST/SENDOK/TERM):
// "the other messages do not have a body (thus avoiding unnecessary and
// expensive pack operations)" (§4.2.1).
func (d *Device) sendHeaderOnly(rt Route, h header) error {
	return d.emit(rt, h, nil, madeleine.SendCheaper)
}

// emit is the one place a ch_mad message is put on the wire: the header as
// an EXPRESS block, then — unless body is nil — the body as one CHEAPER
// block in the given send mode (the §4.2.2 header/body split), on the
// route's channel toward its next hop.
func (d *Device) emit(rt Route, h header, body []byte, mode madeleine.SendMode) error {
	conn, err := rt.Channel.BeginPacking(rt.NextNode)
	if err != nil {
		return err
	}
	if err := conn.Pack(h.encode(), madeleine.SendCheaper, madeleine.ReceiveExpress); err != nil {
		return err
	}
	if body != nil {
		if err := conn.Pack(body, mode, madeleine.ReceiveCheaper); err != nil {
			return err
		}
	}
	return conn.EndPacking()
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
		case PktRndv:
			d.inRndvData(ch, conn, h)
		case PktRndvSeg:
			d.inRndvSeg(ch, conn, h)
		case PktNack:
			d.inNack(ch, conn, h)
		default:
			panic(fmt.Sprintf("ch_mad[%d]: unexpected %s on %s", d.rank, h.Type, ch.Name))
		}
	}
}

// handling charges the per-message device overhead measured in §5.2–§5.4
// (dispatch, queue management, semaphore wakeup).
func (d *Device) handling(ch *madeleine.Channel) {
	d.proc.Compute(ch.Params.DeviceHandling)
}

// inShort lands an eager message: body into the matched buffer via one
// intermediary copy ("optimized for latency, at the cost of an
// intermediary copy on the receiving side", §4.1), or into an unexpected
// stash.
func (d *Device) inShort(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	env := h.envelope()
	bodyLen := h.Len
	if d.MonolithicEager && bodyLen > 0 && bodyLen < d.switchPoint {
		bodyLen = d.switchPoint // padded constant-size buffer on the wire
	}
	var scratch []byte
	if bodyLen > 0 {
		scratch = make([]byte, bodyLen)
		if err := conn.Unpack(scratch, d.eagerBodySendMode(), madeleine.ReceiveCheaper); err != nil {
			panic(fmt.Sprintf("ch_mad[%d]: short body: %v", d.rank, err))
		}
	}
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.handling(ch)
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KPkt, "eager.recv", trace.Args{
			HasPeer: true, Src: int32(env.Src), Dst: int32(d.rank), Bytes: int64(env.Len),
		})
	}
	params := ch.Params
	if r := d.eng.MatchPosted(env); r != nil {
		n, err := adi.CheckLen(r, env)
		d.proc.Compute(params.CopyTime(n)) // the eager intermediary copy
		copy(r.Buf, scratch[:n])
		adi.FinishRecv(r, env, err)
		return
	}
	d.eng.AddUnexpected(env, func(r *adi.RecvReq) {
		n, err := adi.CheckLen(r, env)
		d.proc.Compute(params.CopyTime(n))
		copy(r.Buf, scratch[:n])
		adi.FinishRecv(r, env, err)
	})
}

func (d *Device) eagerBodySendMode() madeleine.SendMode {
	if d.MonolithicEager {
		return madeleine.SendLater
	}
	return madeleine.SendCheaper
}

// inRequest matches a rendez-vous request (Fig. 4b step 1-2): as soon as
// an rhandle is in charge, reply MAD_SENDOK_PKT carrying the sync_address.
// The reply runs on a temporary thread: "each polling thread creates
// threads in order to perform request and acknowledgement operations of
// the rendez-vous transfer mode" (§4.2.3).
func (d *Device) inRequest(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.handling(ch)
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
	d.nextSync++
	sync := d.nextSync
	d.rndvRx[sync] = &rndvState{r: r, env: env, remaining: env.Len}
	back, ok := d.RouteTo(req.SrcRank)
	if !ok {
		adi.FinishRecv(r, env, fmt.Errorf("ch_mad: no return route to rank %d", req.SrcRank))
		return
	}
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
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.handling(ch)
	sr := d.pending[h.ReqID]
	if sr == nil {
		panic(fmt.Sprintf("ch_mad[%d]: SendOK for unknown request %d", d.rank, h.ReqID))
	}
	delete(d.pending, h.ReqID)
	delete(d.retries, h.ReqID)
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRndv, "rndv.ack", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank), Seq: h.ReqID,
		})
	}
	rt, _ := d.RouteTo(sr.Dst)
	if d.RelayPipelining {
		// Striping is gated on the rail set, not on the hop count alone:
		// a direct *backbone* pair with edge-disjoint alternates
		// (co-leader bundle exchanges over parallel bridges) stripes
		// exactly like the multi-hop p2p path, instead of funneling the
		// whole body down the primary rail — its threshold comes from the
		// rails' own stripe segments, because a direct primary has no
		// relay segment. Direct SAN/SMP pairs do NOT stripe even with
		// alternates: their "alternate" is a detour over the same shared
		// intra-cluster medium, so dealing segments onto it only adds
		// relay hops. Single-rail direct pairs keep the whole-body
		// rendez-vous; single-rail multi-hop routes keep the segmented
		// pipeline.
		if rails := d.Rails(sr.Dst); d.RelayStriping && len(rails) > 1 &&
			(rt.Hops > 1 || rt.Class == "wan") {
			thr := rt.SegBytes
			if thr == 0 {
				for _, r := range rails {
					if r.SegBytes > 0 && (thr == 0 || r.SegBytes < thr) {
						thr = r.SegBytes
					}
				}
			}
			if thr > 0 && len(sr.Data) > thr {
				d.sendRndvStriped(sr, rails, h.SyncID)
				return
			}
		}
		if rt.SegBytes > 0 && len(sr.Data) > rt.SegBytes && rt.Hops > 1 {
			// The single-rail pipeline is the stripe over a one-rail set.
			d.sendRndvStriped(sr, []Route{rt}, h.SyncID)
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
		err := d.emit(rt, data, body, madeleine.SendCheaper)
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
	seg := 0
	for _, r := range rails {
		if r.SegBytes > 0 && (seg == 0 || r.SegBytes < seg) {
			seg = r.SegBytes
		}
	}
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
			err := d.emit(rt, h, sr.Data[off:off+n], madeleine.SendCheaper)
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

// inRndvData lands rendez-vous data (Fig. 4b final step): the polling
// thread finds the rhandle from the sync_address in the header and the
// body goes straight to the user buffer — "avoiding any intermediate
// copies" — then releases the semaphore the main thread waits on.
func (d *Device) inRndvData(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	st := d.rndvRx[h.SyncID]
	if st == nil {
		panic(fmt.Sprintf("ch_mad[%d]: RNDV data for unknown sync %d", d.rank, h.SyncID))
	}
	delete(d.rndvRx, h.SyncID)
	n, lenErr := adi.CheckLen(st.r, st.env)
	if lenErr != nil {
		// Truncating: land in a scratch of the full length, keep the
		// prefix (one charged copy).
		scratch := make([]byte, h.Len)
		if err := conn.Unpack(scratch, madeleine.SendCheaper, madeleine.ReceiveCheaper); err != nil {
			panic(err)
		}
		d.proc.Compute(ch.Params.CopyTime(n))
		copy(st.r.Buf, scratch[:n])
	} else {
		// Zero-copy landing directly into the user buffer.
		if err := conn.Unpack(st.r.Buf[:n], madeleine.SendCheaper, madeleine.ReceiveCheaper); err != nil {
			panic(err)
		}
	}
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.handling(ch)
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRndv, "rndv.land", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank),
			Bytes: int64(h.Len), Seq: h.SyncID,
		})
	}
	adi.FinishRecv(st.r, st.env, lenErr)
}

// inRndvSeg lands one pipelined segment of a multi-hop rendez-vous body
// at its offset. Segments of a transfer may interleave with unrelated
// traffic; the rhandle completes when the last byte lands. Segments land
// zero-copy in the user buffer unless the receive truncates, in which
// case they collect in a scratch whose prefix is copied out (charged) at
// completion, mirroring the whole-body path.
func (d *Device) inRndvSeg(ch *madeleine.Channel, conn *madeleine.Connection, h header) {
	st := d.rndvRx[h.SyncID]
	if st == nil {
		panic(fmt.Sprintf("ch_mad[%d]: RNDV segment for unknown sync %d", d.rank, h.SyncID))
	}
	n, lenErr := adi.CheckLen(st.r, st.env)
	landing, segErr := st.segLanding(h.Offset, h.Len, lenErr != nil)
	if segErr != nil {
		panic(fmt.Sprintf("ch_mad[%d]: sync %d from rank %d: %v", d.rank, h.SyncID, h.SrcRank, segErr))
	}
	if err := conn.Unpack(landing, madeleine.SendCheaper, madeleine.ReceiveCheaper); err != nil {
		panic(err)
	}
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.handling(ch)
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KRndv, "rndv.seg.land", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank),
			Bytes: int64(h.Len), Rail: int16(h.PathID), Hop: int16(h.Budget),
			Seq: h.SyncID, Val: int64(h.Offset),
		})
	}
	if !st.segDone(h.Len) {
		return
	}
	delete(d.rndvRx, h.SyncID)
	if lenErr != nil {
		d.proc.Compute(ch.Params.CopyTime(n))
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
	if err := conn.EndUnpacking(); err != nil {
		panic(err)
	}
	d.handling(ch)
	sr := d.pending[h.ReqID]
	if sr == nil {
		return // already failed or completed; stale nack
	}
	if d.Trace != nil {
		d.Trace.Instant(d.TraceTrack, trace.KCredit, "rndv.nack", trace.Args{
			HasPeer: true, Src: int32(h.SrcRank), Dst: int32(d.rank),
			Seq: h.ReqID, Val: int64(h.Context),
		})
	}
	if h.Context == NackBusy {
		attempt := d.retries[h.ReqID]
		if attempt >= maxRndvRetries {
			delete(d.pending, h.ReqID)
			delete(d.retries, h.ReqID)
			sr.Err = fmt.Errorf("ch_mad: gateway rank %d relay queue full for rank %d (gave up after %d retries)",
				h.SrcRank, h.Tag, attempt)
			sr.Done.Fire()
			return
		}
		d.retries[h.ReqID] = attempt + 1
		d.NRndvRetries++
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		backoff := retryBackoff<<shift + vtime.Duration(d.rank%16)*retryStagger
		reqID := h.ReqID
		d.proc.Spawn("ch_mad.rndvretry", func() {
			d.proc.Sleep(backoff)
			if d.pending[reqID] != sr {
				return // completed or failed while backing off
			}
			rt, ok := d.RouteTo(sr.Dst)
			if !ok {
				delete(d.pending, reqID)
				delete(d.retries, reqID)
				sr.Err = fmt.Errorf("ch_mad: rank %d lost its route to rank %d during retry", d.rank, sr.Dst)
				sr.Done.Fire()
				return
			}
			req := header{
				Type:    PktRequest,
				SrcRank: sr.Env.Src,
				DstRank: sr.Dst,
				Tag:     sr.Env.Tag,
				Context: sr.Env.Context,
				Len:     sr.Env.Len,
				ReqID:   reqID,
			}
			if err := d.sendHeaderOnly(rt, req); err != nil {
				delete(d.pending, reqID)
				delete(d.retries, reqID)
				sr.Err = err
				sr.Done.Fire()
			}
		})
		return
	}
	delete(d.pending, h.ReqID)
	delete(d.retries, h.ReqID)
	sr.Err = fmt.Errorf("ch_mad: gateway rank %d has no route to rank %d (forwarding misconfigured)",
		h.SrcRank, h.Tag)
	sr.Done.Fire()
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
	bodyLen := 0
	switch h.Type {
	case PktShort, PktRndv, PktRndvSeg:
		if h.Len > 0 {
			bodyLen = h.Len
			if d.MonolithicEager && h.Type == PktShort && bodyLen < d.switchPoint {
				bodyLen = d.switchPoint
			}
		}
	default:
		// PktRequest/PktSendOK/PktNack/PktTerm are header-only control
		// packets: nothing to drain, no relay credit to hold.
	}
	drain := func() []byte {
		var body []byte
		if bodyLen > 0 {
			body = make([]byte, bodyLen)
			if err := conn.Unpack(body, d.eagerBodySendMode(), madeleine.ReceiveCheaper); err != nil {
				panic(err)
			}
		}
		if err := conn.EndUnpacking(); err != nil {
			panic(err)
		}
		return body
	}

	rt, ok := d.railFor(h, conn.Remote)
	if !ok {
		drain()
		d.handling(ch)
		d.relayNoRoute(h)
		return
	}

	holdsCredit := false
	if d.relayCredits != nil {
		switch {
		case h.Type == PktRequest:
			// Admission control: a full gateway refuses to open a new
			// rendez-vous through itself — the body would have nowhere to
			// queue. The sender backs off and retries.
			if d.RelayQueueDepth() >= d.RelayWindow {
				if err := conn.EndUnpacking(); err != nil {
					panic(err)
				}
				d.handling(ch)
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
			}
		case bodyLen > 0:
			if !d.relayCredits.TryAcquire() {
				// Defer: park the polling thread until a credit frees.
				// The inbound channel stalls behind us — the modeled
				// backpressure on upstream senders.
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
						Bytes: int64(bodyLen),
					})
				}
			}
			holdsCredit = true
		}
	}

	body := drain() // the store: bounded by the credit window
	d.handling(ch)
	d.NForwarded++
	d.RelayBytes += uint64(len(body))
	d.Metrics.Add("relay.msgs", d.MetricsLabel, 1)
	d.Metrics.Add("relay.bytes", d.MetricsLabel, int64(len(body)))
	// Only stored bodies occupy the store-and-forward queue: header-only
	// control forwards (SendOK, nacks, admitted requests) hold no buffer
	// and no credit, so they must not count toward the bounded depth.
	if bodyLen > 0 {
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
		err := d.emit(rt, h, body, madeleine.SendLater)
		if bodyLen > 0 {
			d.relayInFlight--
		}
		if holdsCredit {
			d.relayCredits.Release()
		}
		if d.Trace != nil {
			d.Trace.Span(d.TraceTrack, trace.KRelay, "relay.hop", t0, trace.Args{
				HasPeer: true, Src: int32(h.SrcRank), Dst: int32(h.DstRank),
				Bytes: int64(len(body)), Rail: int16(h.PathID), Hop: int16(arrivedBudget),
				Seq: h.SyncID, GW: rt.Channel.Name,
			})
			if bodyLen > 0 {
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
// the preferred rail, carries the segment at the price of extra hops.
func (d *Device) railFor(h header, from string) (Route, bool) {
	d.ensureRoute(h.DstRank)
	rails, multi := d.rails[h.DstRank]
	if !multi {
		// Single-route fast path: no rail slice to consult (and none
		// allocated — this runs per relayed packet). The selection loop
		// below would return the lone route unconditionally (it is the
		// preferred rail and the last resort alike), so just do that.
		rt, ok := d.routes[h.DstRank]
		return rt, ok
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
	if h.Type != PktRequest {
		return
	}
	d.nackSender(h, NackNoRoute)
}

// SendTerm emits a MAD_TERM_PKT to a neighbour's channel, terminating its
// polling loop (used by orderly shutdown tests).
func (d *Device) SendTerm(dst int) error {
	rt, ok := d.RouteTo(dst)
	if !ok {
		return fmt.Errorf("ch_mad: no route to rank %d", dst)
	}
	return d.sendHeaderOnly(rt, header{Type: PktTerm, SrcRank: d.rank, DstRank: dst})
}

// Pending returns outstanding rendez-vous counts (tests).
func (d *Device) Pending() (sends, recvs int) { return len(d.pending), len(d.rndvRx) }

var _ adi.Device = (*Device)(nil)
