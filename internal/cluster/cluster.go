// Package cluster assembles simulated MPI sessions: it turns a declarative
// topology (nodes, networks, rank placement) into wired processes — ch_self
// for intra-process, smp_plug for intra-node, ch_mad over Madeleine
// channels (or the ch_p4 baseline over TCP) for inter-node — and launches
// rank programs, reproducing the paper's Fig. 3 software organization. It
// is the substitute for real cluster-of-clusters hardware and mpirun.
package cluster

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/chp4"
	"mpichmad/internal/chself"
	"mpichmad/internal/core"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/route"
	"mpichmad/internal/smpplug"
	"mpichmad/internal/stats"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// defaultTracer is the fallback tracer Build uses when Topology.Trace is
// nil: process-wide plumbing for the experiment driver's -trace flag, so
// every experiment in a run gets traced without per-topology wiring.
var defaultTracer *trace.Tracer

// SetDefaultTracer installs (or, with nil, clears) the process-wide
// fallback tracer picked up by every subsequent Build.
func SetDefaultTracer(t *trace.Tracer) { defaultTracer = t }

// deadlockTailEvents is how many flight-recorder events a traced session
// appends to a vtime.DeadlockError report.
const deadlockTailEvents = 16

// NodeSpec places Procs MPI ranks on one physical node.
type NodeSpec struct {
	Name  string
	Procs int
}

// NetworkSpec declares one physical network and which nodes it connects.
// Protocol selects a netsim preset ("tcp", "sisci", "bip"); Params, if
// non-nil, overrides it entirely.
type NetworkSpec struct {
	Name     string
	Protocol string
	Params   *netsim.Params
	Nodes    []string
}

// Topology is a declarative cluster-of-clusters description.
type Topology struct {
	Nodes    []NodeSpec
	Networks []NetworkSpec

	// Device selects the inter-node MPICH device: "ch_mad" (default)
	// or "ch_p4" (baseline; requires a single tcp network).
	Device string

	// Forwarding enables the §6 gateway store-and-forward extension:
	// nodes without a shared network communicate through multi-homed
	// gateway nodes (ch_mad only).
	Forwarding bool

	// Uniform disables the per-link device mux — the single-protocol
	// ch_mad-only ablation the paper's multi-device design is measured
	// against. No smp_plug wiring (intra-node pairs ride the fastest
	// shared network through ch_mad like any other link) and every device
	// keeps the one globally elected eager->rendez-vous switch point
	// instead of resolving it per destination link (ch_mad only).
	Uniform bool

	// Autotune runs the MPI_Init collective autotuner on every rank
	// before the rank main: candidate algorithms are timed on the live
	// topology and the measured crossover table replaces the analytic
	// tuning thresholds (see mpi.Process.Autotune). Costs a little
	// virtual init time per rank program.
	Autotune bool

	// ObliviousLeaders disables the gateway-aware cluster-leader election
	// (the two-level collectives fall back to the lowest-rank leaders):
	// the ablation baseline for the routing subsystem's benchmarks.
	ObliviousLeaders bool

	// MaxPaths is the number of edge-disjoint paths the routing planner
	// exposes per rank pair (internal/route Options.MaxPaths). 0 defaults
	// to 2 on forwarded topologies — the bridged triangle's third side
	// becomes a real second rail the device stripes large rendez-vous
	// bodies over — and 1 otherwise. Set 1 to force the classic
	// single-path planner (striping ablation).
	MaxPaths int

	// RelayWindow bounds every gateway's store-and-forward queue (the
	// relay credit window, core.Device.RelayWindow): 0 defaults to
	// DefaultRelayWindow on forwarded topologies — or, when Autotune is
	// also on, to each gateway's bandwidth-delay product (bdpRelayWindows)
	// — and leaves the queue unbounded otherwise.
	RelayWindow int

	// Trace, when set, records the session's virtual-time event stream
	// (packet lifecycle, relay hops, schedule rounds, trunk contention)
	// on this tracer. Nil falls back to the tracer installed by
	// SetDefaultTracer; nil both ways leaves tracing off — one dead
	// branch per hot path. The metrics registry is independent of this
	// and always on.
	Trace *trace.Tracer
}

// deadline bounds every session's virtual time.
const deadline = 1000 * vtime.Second

// resolvedMaxPaths is the effective planner path count after defaulting:
// 2 on forwarded topologies (the second rail), 1 otherwise.
func (topo Topology) resolvedMaxPaths() int {
	if topo.MaxPaths != 0 {
		return topo.MaxPaths
	}
	if topo.Forwarding {
		return 2
	}
	return 1
}

// resolvedRelayWindow is the effective static gateway queue bound after
// defaulting: DefaultRelayWindow on forwarded topologies, 0 (unbounded)
// otherwise.
func (topo Topology) resolvedRelayWindow() int {
	if topo.RelayWindow == 0 && topo.Forwarding {
		return DefaultRelayWindow
	}
	return topo.RelayWindow
}

// Rank is one wired MPI process.
type Rank struct {
	Rank int
	Node string
	Proc *marcel.Proc
	MPI  *mpi.Process
	Eng  *adi.Engine
	// ChMad is the inter-node device (nil when Device is ch_p4).
	ChMad *core.Device
}

// DefaultRelayWindow is the gateway store-and-forward queue bound wired
// onto forwarded topologies when Topology.RelayWindow is zero: deep
// enough that a healthy pipelined relay never stalls, shallow enough
// that a hot gateway backpressures its senders instead of buffering an
// entire collective.
const DefaultRelayWindow = 16

// railCostFactor caps how much worse (in planner wire cost) an alternate
// rail may be than the primary path and still be installed: striping
// round-robin over a rail several times slower would drag the stripe
// down to its pace.
const railCostFactor = 3.0

// Session is a fully wired simulated MPI job, ready to Run.
type Session struct {
	S        *vtime.Scheduler
	Topo     Topology
	Ranks    []*Rank
	Networks map[string]*netsim.Network

	// Tracer is the session's event tracer (nil: tracing off); Metrics
	// is the always-on counter registry every device and network feeds
	// (gateway relay load, trunk contention) — it is what RelayStats
	// reads, so it exists even when tracing is off. Run adds the
	// scheduler's vtime.tasks and vtime.coroutines to it at the end, and the
	// buffers the session's list made (netsim.bufs_made, _MB).
	Tracer  *trace.Tracer
	Metrics *trace.Registry

	// bufs is the session's one free list of payload buffers: every
	// network's wire buffers, every process's stashes, collective staging
	// and autotune probes, and the shared-memory segments' slots (drawn
	// through the engines).
	bufs netsim.BufList

	traceCtrl int // session-control trace track (replan instants)

	netsOfNode map[string][]string // node -> attached network names
	places     []placementInfo     // rank -> placement
	hier       *mpi.Hierarchy      // discovered cluster structure
	plan       *route.Plan         // cost-model routing (ch_mad only)
	graph      route.Graph         // the proc graph the plan was computed on (Nets also for ch_p4)
	maxPaths   int                 // resolved Topology.MaxPaths
	segCap     int                 // global backbone-segment cap (uniform sessions only; 0 = per-path clamping)
	// classMemo caches routed link classes of the session's *current* plan
	// by (source bloc, destination bloc) — co-bloc ranks share signature and
	// congestion term, so the class is a bloc invariant and the cache stays
	// O(blocs²) no matter how many rank pairs are queried. Reset whenever
	// the plan changes.
	classMemo map[[2]int]string
	chanOf    []map[string]*madeleine.Channel // rank -> network name -> channel (ch_mad only)
	rankErr   []error
}

// Build wires a session from a topology.
func Build(topo Topology) (*Session, error) {
	if topo.Device == "" {
		topo.Device = "ch_mad"
	}
	if topo.RelayWindow < 0 || topo.MaxPaths < 0 {
		return nil, fmt.Errorf("cluster: negative RelayWindow (%d) or MaxPaths (%d)", topo.RelayWindow, topo.MaxPaths)
	}
	s := vtime.New()
	s.SetDeadline(vtime.Time(deadline))
	sess := &Session{
		S:        s,
		Topo:     topo,
		Networks: make(map[string]*netsim.Network),
		Metrics:  trace.NewRegistry(),
		graph:    route.Graph{Nets: make(map[string]netsim.Params, len(topo.Networks))},
	}

	nodeNets := make(map[string][]string) // node -> network names
	for _, ns := range topo.Networks {
		var params netsim.Params
		if ns.Params != nil {
			params = *ns.Params
		} else {
			p, ok := netsim.ByProtocol(ns.Protocol)
			if !ok {
				return nil, fmt.Errorf("cluster: unknown protocol %q", ns.Protocol)
			}
			params = p
		}
		net := netsim.NewNetwork(s, ns.Name, params)
		net.SetBufs(&sess.bufs)
		net.Metrics = sess.Metrics
		sess.Networks[ns.Name] = net
		sess.graph.Nets[ns.Name] = params
		for _, n := range ns.Nodes {
			nodeNets[n] = append(nodeNets[n], ns.Name)
		}
	}

	// Place ranks on nodes.
	var places []placementInfo
	for _, nd := range topo.Nodes {
		if nd.Procs <= 0 {
			return nil, fmt.Errorf("cluster: node %s has %d procs", nd.Name, nd.Procs)
		}
		for i := 0; i < nd.Procs; i++ {
			pname := nd.Name
			if nd.Procs > 1 {
				pname = fmt.Sprintf("%s.p%d", nd.Name, i)
			}
			places = append(places, placementInfo{node: nd.Name, proc: pname})
		}
	}
	size := len(places)
	if size == 0 {
		return nil, fmt.Errorf("cluster: empty topology")
	}
	sess.places = places
	sess.netsOfNode = nodeNets

	// Observability wiring: the registry, which every network feeds, is
	// unconditional (RelayStats and the trunk-delay column read it); the
	// tracer — explicit on the topology or the process-wide default — gets
	// a Chrome track per rank, per network, and one control track, plus
	// the scheduler's deadlock hook pointed at the flight recorder.
	tracer := topo.Trace
	if tracer == nil {
		tracer = defaultTracer
	}
	sess.Tracer = tracer
	if tracer != nil {
		tracer.SetClock(s.Now)
		tracer.BeginSession(fmt.Sprintf("%s x%d", topo.Device, size))
		for r, pl := range places {
			tracer.SetTrackName(r, fmt.Sprintf("rank%d(%s)", r, pl.node))
		}
		for i, ns := range topo.Networks {
			net := sess.Networks[ns.Name]
			net.Trace = tracer
			net.TraceTrack = size + i
			tracer.SetTrackName(size+i, "net:"+ns.Name)
		}
		sess.traceCtrl = size + len(topo.Networks)
		tracer.SetTrackName(sess.traceCtrl, "session")
		s.OnDeadlock = func() []string { return tracer.Tail(deadlockTailEvents) }
	}

	// Every rank, whatever its inter-node device: a process (the Marcel
	// threads of Fig. 3), its ADI engine and ch_self.
	sess.Ranks = make([]*Rank, size)
	muxes := make([]rankMux, size)
	for r, pl := range places {
		proc := marcel.NewProc(s, pl.proc)
		eng := adi.NewEngine(proc, r)
		eng.Bufs = &sess.bufs
		sess.Ranks[r] = &Rank{Rank: r, Node: pl.node, Proc: proc, Eng: eng}
		muxes[r].self = chself.New(proc, eng)
	}

	// The inter-node device, and the cluster hierarchy the collectives
	// read: ch_mad over Madeleine channels with smp_plug beside it, or the
	// ch_p4 baseline over its one TCP network.
	switch topo.Device {
	case "ch_mad":
		if err := sess.wireChMad(muxes); err != nil {
			return nil, err
		}
	case "ch_p4":
		if len(sess.Networks) != 1 {
			return nil, fmt.Errorf("cluster: ch_p4 requires exactly one network")
		}
		tcp := sess.Networks[topo.Networks[0].Name]
		procOf := make(map[int]string, size)
		for r, pl := range places {
			procOf[r] = pl.proc
		}
		for r, rk := range sess.Ranks {
			muxes[r].inter = chp4.New(rk.Proc, rk.Eng, tcp, procOf)
		}
		sess.discoverHierarchy(0)
	default:
		return nil, fmt.Errorf("cluster: unknown device %q", topo.Device)
	}

	// Every rank's MPI process over its device mux: ch_self toward itself,
	// smp_plug toward its node, the inter-node device toward the rest. Its
	// per-class eager thresholds are one table, shared with its ch_mad
	// device: the MPI_Init autotuner writes it, both read it.
	probes := sess.classProbes()
	world := mpi.WorldGroup(size)
	for r, rk := range sess.Ranks {
		m := muxes[r]
		devices := []adi.Device{m.self, m.inter}
		if m.smp != nil {
			devices = append(devices, m.smp)
		}
		route := func(dst int) adi.Device {
			switch {
			case dst == r:
				return m.self
			case sess.viaSMP(r, dst):
				return m.smp
			}
			return m.inter
		}
		rk.MPI = mpi.NewProcess(rk.Proc, rk.Eng, r, world, route, devices)
		if rk.ChMad != nil {
			rk.ChMad.ClassSwitch = rk.MPI.ClassSwitchPoints()
		}
		if tracer != nil {
			rk.MPI.SetTrace(tracer, r)
		}
		rk.MPI.SetHierarchy(sess.hier)
		rk.MPI.SetClassProbes(probes)
	}
	return sess, nil
}

// placementInfo records where one rank lives: its node and its unique
// process/endpoint name.
type placementInfo struct {
	node string
	proc string
}

// rankMux is one rank's devices: ch_self, smp_plug (nil unless viaSMP
// pairs reach the rank) and the inter-node device.
type rankMux struct {
	self, smp, inter adi.Device
}

// viaSMP reports whether ranks a ≠ b talk over smp_plug: both on one node
// of a ch_mad session that is not Uniform. Such a pair's link class is
// "smp", and ch_mad has no route for it.
func (sess *Session) viaSMP(a, b int) bool {
	return sess.places[a].node == sess.places[b].node && !sess.Topo.Uniform && sess.Topo.Device == "ch_mad"
}

// wireChMad gives every rank its ch_mad device, with a Madeleine channel
// per attached network, and smp_plug on a node of several ranks (the
// uniform ch_mad-only ablation has no segments: intra-node pairs then
// ride the fastest shared network through ch_mad like any other link).
// It then plans the routes, elects the thresholds, discovers the
// hierarchy and starts the devices.
func (sess *Session) wireChMad(muxes []rankMux) error {
	uniform := sess.Topo.Uniform
	smpNodes := make(map[string]*smpplug.Node)
	perNode := make(map[string]int)
	for _, pl := range sess.places {
		perNode[pl.node]++
	}
	for node, n := range perNode {
		if n > 1 && !uniform {
			smpNodes[node] = smpplug.NewNode(sess.S, node)
		}
	}

	size := len(sess.places)
	sess.chanOf = make([]map[string]*madeleine.Channel, size)
	for r, rk := range sess.Ranks {
		pl := sess.places[r]
		dev := core.New(rk.Proc, rk.Eng, r)
		dev.Metrics = sess.Metrics
		dev.MetricsLabel = fmt.Sprintf("rank%d(%s)", r, pl.node)
		if sess.Tracer != nil {
			dev.Trace = sess.Tracer
			dev.TraceTrack = r
		}
		inst := madeleine.New(rk.Proc)
		sess.chanOf[r] = make(map[string]*madeleine.Channel)
		for _, netName := range sess.netsOfNode[pl.node] {
			ch, err := inst.NewChannel(netName, sess.Networks[netName])
			if err != nil {
				return err
			}
			dev.AddChannel(ch)
			sess.chanOf[r][netName] = ch
		}
		rk.ChMad, muxes[r].inter = dev, dev
		if seg := smpNodes[pl.node]; seg != nil {
			muxes[r].smp = seg.Join(rk.Proc, rk.Eng, r)
		}
	}

	// Inter-node routing: the cost-model routing subsystem plans full
	// shortest-cost paths over the proc graph whose edges are shared
	// networks (internal/route); the device gets, per destination, up to
	// MaxPaths edge-disjoint rails carrying the path metadata (hop count,
	// relay pipelining segment, wire cost for stripe weighting). Multi-hop
	// routes through gateways are installed only when Forwarding is on.
	g := &sess.graph
	g.N, g.NetsOf = size, make([][]string, size)
	for r, pl := range sess.places {
		g.NetsOf[r] = sess.netsOfNode[pl.node]
	}
	sess.maxPaths = sess.Topo.resolvedMaxPaths()
	plan := route.ComputeOpts(*g, route.Options{RefBytes: route.DefaultRefBytes, MaxPaths: sess.maxPaths})
	sess.plan = plan
	sess.bindLinkClasses()
	sess.installRoutes(plan)

	// Elect each device's fallback threshold, then discover the cluster
	// hierarchy. Uniform single-threshold sessions pin the elected value on
	// every link and cap every backbone pipeline segment at the globally
	// elected minimum — the historical behaviour; the per-link mux leaves
	// segCap zero and routedInter instead clamps each backbone segment by
	// the switch points along its actual path.
	minSwitch := 0
	for _, rk := range sess.Ranks {
		sp := rk.ChMad.ElectSwitchPoint()
		if uniform {
			rk.ChMad.SetSwitchPoint(sp)
		}
		if minSwitch == 0 || sp < minSwitch {
			minSwitch = sp
		}
	}
	if uniform {
		sess.segCap = minSwitch
	}
	hier := sess.discoverHierarchy(sess.segCap)

	// Bound every gateway's store-and-forward queue (admission control)
	// and start the devices. A session that opted into tuning (Autotune)
	// without pinning RelayWindow sizes each window from the
	// bandwidth-delay product of the backbones the device's node fronts
	// (the largest, so the fat pipe is not throttled to the thin one's
	// product) instead of the static default.
	var bdp map[string]int
	if sess.Topo.Autotune && sess.Topo.RelayWindow == 0 && sess.Topo.Forwarding {
		bdp = sess.bdpRelayWindows(hier)
	}
	for r, rk := range sess.Ranks {
		dev := rk.ChMad
		for _, net := range sess.netsOfNode[sess.places[r].node] {
			dev.RelayWindow = max(dev.RelayWindow, bdp[net])
		}
		if dev.RelayWindow == 0 {
			dev.RelayWindow = sess.Topo.resolvedRelayWindow()
		}
		dev.Start()
	}
	return nil
}

// bindLinkClasses resets the session's link-class cache for the current
// plan. Classes themselves are resolved lazily per queried pair (the
// per-link device mux's topology discovery): intra-process pairs are
// chself-class, intra-node pairs smp-class (when the mux wires smp_plug),
// and routed pairs take the dominating class of their planned path
// (SAN-class intra-cluster, TCP-class across a commodity backbone) —
// memoized per bloc pair, since co-bloc ranks (same signature and term)
// route through identical network sequences. Unroutable pairs stay
// unclassified ("").
func (sess *Session) bindLinkClasses() {
	sess.classMemo = make(map[[2]int]string)
}

// LinkClassOf returns the device class of the link from src toward dst
// ("self", "smp", "san", "wan"), "" for ch_p4 sessions or unroutable
// pairs. Resolved against the session's current plan — the lazy
// replacement for one cell of the old N×N class matrix, byte-identical
// per pair.
func (sess *Session) LinkClassOf(src, dst int) string {
	plan := sess.plan
	if plan == nil || dst < 0 || dst >= len(sess.places) {
		return ""
	}
	switch {
	case dst == src:
		return route.ClassSelf.String()
	case sess.viaSMP(src, dst):
		return route.ClassSMP.String()
	}
	key := [2]int{plan.BlocOf(src), plan.BlocOf(dst)}
	c, ok := sess.classMemo[key]
	if !ok {
		if hops, routed := plan.Path(src, dst); routed {
			c = plan.Info(hops).Class.String()
		}
		sess.classMemo[key] = c
	}
	return c
}

// classProbes picks, per inter-node device class present in the session,
// the lowest ordered rank pair of that class: the representative pair the
// MPI_Init autotuner times to measure the class's eager/rendez-vous
// crossover — one probe per class, not a sweep over every pair.
// Deterministic, so every rank installs the identical list. The scan
// resolves classes lazily through the bloc memo, so even the exhaustive
// no-such-class case costs O(N²) cache hits, not O(N²) path walks. None
// in a ch_p4 session, nor in a Uniform one, where every link keeps the
// elected threshold.
func (sess *Session) classProbes() []mpi.ClassProbe {
	if sess.plan == nil || sess.Topo.Uniform {
		return nil
	}
	size := len(sess.places)
	var probes []mpi.ClassProbe
	for _, class := range []string{route.ClassSAN.String(), route.ClassWAN.String()} {
		found := false
		for i := 0; i < size && !found; i++ {
			for j := i + 1; j < size && !found; j++ {
				if sess.LinkClassOf(i, j) == class {
					probes = append(probes, mpi.ClassProbe{Class: class, A: i, B: j})
					found = true
				}
			}
		}
	}
	return probes
}

// installRoutes points every rank's device at a lazy rail resolver bound
// to the given plan, replacing whatever was wired before (shared by Build
// and Replan — for a re-plan this doubles as the O(1) cache flush that
// makes the new routes take effect immediately). Rails are resolved per
// destination on first use, so a session only ever pays for the pairs
// that actually communicate. Intra-node pairs normally ride smp_plug and
// get no ch_mad route; the uniform ch_mad-only ablation routes them
// through the device too.
func (sess *Session) installRoutes(plan *route.Plan) {
	size := len(sess.places)
	for r, rk := range sess.Ranks {
		rk.ChMad.SetRailSource(func(dst int) []core.Route {
			if dst == r || dst < 0 || dst >= size || sess.viaSMP(r, dst) {
				return nil
			}
			return sess.railsFor(plan, r, dst)
		})
	}
}

// railsFor translates a pair's planned path set into device routes:
// rails[0] is the primary, alternates follow while their wire cost stays
// within railCostFactor of the primary's. Gateways required but
// forwarding off falls back to a direct shared network if one exists
// (the planner may have preferred a cheaper relayed path): that edge is
// the pair's one path, priced like every other. Else the pair stays
// unroutable and Send errors.
func (sess *Session) railsFor(plan *route.Plan, r, dst int) []core.Route {
	paths, ok := plan.Paths(r, dst)
	if !ok || len(paths) == 0 {
		return nil
	}
	if len(paths[0]) > 1 && !sess.Topo.Forwarding {
		direct, _, shared := plan.DirectEdge(r, dst)
		if !shared {
			return nil
		}
		paths = [][]route.Hop{{{Rank: dst, Net: direct}}}
	}
	var rails []core.Route
	for i, hops := range paths {
		if len(hops) > 1 && !sess.Topo.Forwarding {
			break // no gateway rails in a session without forwarding
		}
		in := plan.Info(hops)
		if i > 0 && in.Cost > railCostFactor*rails[0].Cost {
			break // alternates only get worse from here
		}
		rails = append(rails, core.Route{
			Channel:        sess.chanOf[r][hops[0].Net],
			NextNode:       sess.places[hops[0].Rank].proc,
			Hops:           len(hops),
			SegBytes:       in.Segment,
			Cost:           in.Cost,
			BottleneckCost: in.Bottleneck,
			SwitchBytes:    in.Switch,
			Class:          in.Class.String(),
		})
	}
	// A direct rail pipelines through no relay, so it carries no segment —
	// unless its pair has alternates: then its bodies stripe, and the
	// stripe deal needs every rail's pacing segment.
	if len(rails) == 1 && rails[0].Hops == 1 {
		rails[0].SegBytes = 0
	}
	return rails
}

// Replan closes the adaptive loop: it recomputes the routing plan with
// every gateway's observed relay-queue pressure (the high-water mark
// since the previous replan, or the live depth if higher) fed back into
// the edge costs as a congestion term, reinstalls routes and rails on
// every device, and re-elects cluster leaders plus the recalibrated
// backbone link from the new plan. Schedules stay deterministic within a
// run because replanning only happens when the caller invokes it — call
// it at a collective boundary (all ranks quiescent, e.g. right after a
// Barrier) from a single rank's program. Communicators pick the new
// routes up immediately (routing is resolved per message) and the new
// leaders at their next collective. No-op for ch_p4 sessions.
func (sess *Session) Replan() *route.Plan {
	if sess.plan == nil {
		return nil
	}
	cong := make([]float64, len(sess.places))
	nCongested := 0
	for r, rk := range sess.Ranks {
		dev := rk.ChMad
		depth := dev.TakeRelayHigh()
		if live := dev.RelayQueueDepth(); live > depth {
			depth = live
		}
		if depth == 0 {
			continue
		}
		cong[r] = float64(depth) * sess.congestionUnit(r)
		nCongested++
	}
	plan := route.ComputeOpts(sess.graph, route.Options{
		RefBytes:   route.DefaultRefBytes,
		MaxPaths:   sess.maxPaths,
		Congestion: cong,
	})
	sess.plan = plan
	sess.bindLinkClasses()
	sess.installRoutes(plan)
	if sess.Tracer != nil {
		// Val carries how many gateways fed congestion into the new plan.
		sess.Tracer.Instant(sess.traceCtrl, trace.KCtrl, "replan",
			trace.Args{Val: int64(nCongested)})
	}
	if sess.hier != nil {
		sess.electLeaders(sess.hier, sess.spanning(sess.hier))
		sess.routedInter(sess.hier, sess.segCap)
		for _, rk := range sess.Ranks {
			rk.MPI.RefreshHierarchy(sess.hier)
		}
	}
	return plan
}

// congestionUnit is the edge-cost penalty one unit of relay-queue depth
// at rank r contributes: one reference-payload hop on the most expensive
// network attached to it — roughly how long a queued body occupies the
// gateway's bottleneck link.
func (sess *Session) congestionUnit(r int) float64 {
	unit := 0.0
	for _, name := range sess.netsOfNode[sess.places[r].node] {
		if c := route.HopCost(sess.Networks[name].Params, route.DefaultRefBytes); c > unit {
			unit = c
		}
	}
	return unit
}

// RoutePlan returns the session's computed routing plan (nil for ch_p4
// sessions, which have a single flat network).
func (sess *Session) RoutePlan() *route.Plan { return sess.plan }

// RelayStats reports the gateway load accounting of every rank that
// relayed (or refused) traffic this session: messages and body bytes
// forwarded, messages dropped at routing holes, admission-control
// activity (deferred bodies, busy nacks) and the peak
// store-and-forward queue depth against the configured window. Ordered
// by rank.
func (sess *Session) RelayStats() []stats.RelayStat {
	var out []stats.RelayStat
	for _, rk := range sess.Ranks {
		d := rk.ChMad
		if d == nil || (d.NForwarded == 0 && d.NRelayDrops == 0 &&
			d.NRelayBusy == 0 && d.NRelayDeferred == 0) {
			continue
		}
		out = append(out, stats.RelayStat{
			Name:         fmt.Sprintf("rank%d(%s)", rk.Rank, rk.Node),
			Msgs:         d.NForwarded,
			Bytes:        d.RelayBytes,
			DropsNoRoute: d.NRelayDrops,
			Deferred:     d.NRelayDeferred,
			BusyNacks:    d.NRelayBusy,
			QueuePeak:    d.RelayQueuePeak,
			Window:       d.RelayWindow,
			// Time this rank's outbound packets spent queued behind other
			// pipes' traffic for a shared trunk — a gateway whose relays
			// stall here is bottlenecked by the backbone, not its queue.
			TrunkWait: vtime.Duration(sess.Metrics.Get("trunk.wait.ns", sess.places[rk.Rank].proc)),
		})
	}
	return out
}

// Run spawns main on every rank (receiving MPI_COMM_WORLD), executes the
// simulation to completion, and returns the first error from any rank or
// the scheduler. Ranks that return without calling Finalize are finalized
// automatically.
func (sess *Session) Run(main func(rank int, comm *mpi.Comm) error) error {
	sess.rankErr = make([]error, len(sess.Ranks))
	for _, rk := range sess.Ranks {
		rk.Proc.Spawn("main", func() {
			if sess.Topo.Autotune {
				if err := rk.MPI.Autotune(); err != nil {
					sess.rankErr[rk.Rank] = fmt.Errorf("rank %d autotune: %w", rk.Rank, err)
					return
				}
			}
			if err := main(rk.Rank, rk.MPI.World); err != nil {
				sess.rankErr[rk.Rank] = fmt.Errorf("rank %d: %w", rk.Rank, err)
				return
			}
			if err := rk.MPI.Finalize(); err != nil {
				sess.rankErr[rk.Rank] = fmt.Errorf("rank %d finalize: %w", rk.Rank, err)
			}
		})
	}
	schedErr := sess.S.Run()
	tasks, coros := sess.S.Counts()
	made, bytes := sess.bufs.Made()
	sess.Metrics.Add("vtime.tasks", "", int64(tasks))
	sess.Metrics.Add("vtime.coroutines", "", int64(coros))
	sess.Metrics.Add("netsim.bufs_made", "", int64(made))
	sess.Metrics.Add("netsim.bufs_made_MB", "", bytes/netsim.MB)
	// A rank error usually deadlocks the rest of the job (they wait for
	// a peer that already failed); report the root cause first.
	for _, err := range sess.rankErr {
		if err != nil {
			if schedErr != nil {
				return fmt.Errorf("%w (then: %v)", err, schedErr)
			}
			return err
		}
	}
	if schedErr != nil {
		return schedErr
	}
	// Clean completion: every device's protocol state must have returned
	// to rest (credit windows full, no rendez-vous left open, counters
	// consistent) — the Finalize-time invariant audit. A violation here is
	// a transport bug even though the application saw correct data.
	for _, rk := range sess.Ranks {
		if err := rk.MPI.AuditDevices(); err != nil {
			return fmt.Errorf("post-run invariant audit: %w", err)
		}
	}
	return nil
}

// Launch is Build followed by Run.
//
//madlint:ignore deadexport tests in other packages call it (the mpi suites run on it)
func Launch(topo Topology, main func(rank int, comm *mpi.Comm) error) (*Session, error) {
	sess, err := Build(topo)
	if err != nil {
		return nil, err
	}
	if err := sess.Run(main); err != nil {
		return sess, err
	}
	return sess, nil
}

// TwoNodes is a convenience topology: two single-proc nodes joined by one
// network of the given protocol.
func TwoNodes(protocol string) Topology {
	return Topology{
		Nodes: []NodeSpec{{Name: "n0", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []NetworkSpec{
			{Name: protocol, Protocol: protocol, Nodes: []string{"n0", "n1"}},
		},
	}
}
