// Package route is the cost-model routing subsystem between the fabric
// (netsim) and the cluster wiring: it answers shortest-cost path queries
// for ordered rank pairs over the proc/network graph, replacing the
// hop-count BFS the §6 forwarding extension started with.
//
// The edge cost is derived from the calibrated netsim.Params of the
// network carrying the hop: fixed per-hop cost (wire latency, injection
// and extraction overheads, ch_mad device handling) plus size-dependent
// serialization at a reference payload, plus the device-class transfer
// mode term (eager intermediary copy at or below the edge's native switch
// point, rendez-vous handshake above it — see HopCost and class.go),
// plus a trunk-contention penalty
// when the network models shared aggregate bandwidth (PR 3's arbiter) —
// a capped backbone hop is charged its trunk occupancy twice, once for
// its own serialization and once for the expected queueing behind a
// competing crossing. Paths therefore prefer one fast-fabric hop over a
// slow bridge, and an uncontended bridge over a contended one, which is
// what gateway-aware leader election needs.
//
// # Scaling model
//
// The planner no longer materializes all-pairs dist/prev matrices. Plan
// construction is O(N + nets): it only indexes attachments and partitions
// the ranks into blocs — maximal groups with identical network
// signature and congestion term (e.g. "the 15 non-gateway members of
// cluster 12"). All shortest-path state is computed lazily and
// hierarchically:
//
//   - Every plan routes over the quotient graph whose nodes are
//     blocs (a 64-cluster × 16-rank machine has ~129 blocs, not 1024
//     ranks). One Dijkstra per source *bloc* is computed on first use and
//     shared by every co-member, because distances out of a bloc are
//     independent of which member asks: co-members are interchangeable
//     under the graph automorphism that swaps them, and a detour through
//     a co-member always costs strictly more than leaving directly.
//     Rank-level paths are reconstructed from the bloc chain on demand
//     (the representative of each interior bloc relays), reproducing the
//     dense planner's deterministic tie-breaks exactly — see bloc.go.
//   - Edge-disjoint alternates (Paths with MaxPaths > 1) need per-pair
//     banned-edge searches and use a heap Dijkstra with real adjacency
//     (ranktree.go), cached per ordered pair.
//
// The dense all-pairs implementation is retained in dense_test.go purely as
// the reference for the eager==lazy equivalence property test.
//
// Since the multi-path refactor the planner is no longer single-path or
// open-loop:
//
//   - Options.MaxPaths > 1 computes up to K edge-disjoint paths per
//     ordered pair (Paths): path 0 is the shortest-cost primary, each
//     alternate is the shortest path avoiding every (pair, network) edge
//     the earlier paths used. On a bridged triangle the third side
//     becomes a real second rail the device can stripe over.
//   - Options.Congestion feeds observed relay load back into the edge
//     costs: every hop that would relay *through* a congested rank is
//     charged that rank's congestion term, so a re-plan at a collective
//     boundary steers traffic around a hot gateway instead of queueing
//     behind it.
//
// The planner is deterministic: ties break toward the lower rank and the
// lexicographically smaller network name, so every session wires
// identical routes for identical topologies (and identical congestion
// observations).
package route

import (
	"sort"

	"mpichmad/internal/netsim"
)

// DefaultRefBytes is the reference payload for edge costs: one mid-size
// rendez-vous relay segment, large enough that bandwidth matters and
// small enough that latency still does.
const DefaultRefBytes = 16 << 10

// Graph is the proc-level connectivity the planner works on: proc i is
// attached to the networks named in NetsOf[i], and two procs share an
// edge per network they are both attached to.
type Graph struct {
	N      int
	NetsOf [][]string
	Nets   map[string]netsim.Params
}

// Options parameterize a plan beyond the graph itself.
type Options struct {
	// RefBytes is the reference payload for edge costs
	// (DefaultRefBytes when <= 0).
	RefBytes int
	// MaxPaths is the number of edge-disjoint paths to expose per ordered
	// pair (Paths); values < 1 mean 1 (the classic single-path planner).
	MaxPaths int
	// Congestion, when non-nil, is the observed relay congestion of each
	// rank in seconds (typically relay queue depth x one reference-payload
	// hop time, supplied by the cluster session from Session.RelayStats).
	// Every hop *leaving* a congested rank that is not the path's source —
	// i.e. every hop that would relay through it — is charged the term, so
	// hot gateways price themselves out of new paths.
	Congestion []float64
}

// Hop is one step of a routed path: the rank the hop lands on and the
// network carrying it.
type Hop struct {
	Rank int
	Net  string
}

// HopCost is the cost model of one hop over a network, in seconds, for an
// nBytes payload: fixed per-hop costs plus serialization plus the
// trunk-contention penalty described in the package comment, plus the
// transfer-mode term of the edge's own device class — the cost curve is
// device-aware, not a uniform reference. A payload at or below the edge's
// native switch point rides the eager path and pays the class's
// intermediary copy (CopyTime through the driver's buffers); a larger
// payload goes rendez-vous and pays the REQUEST/SENDOK handshake (two
// extra fixed-cost wire crossings) instead. Two edges with identical
// latency and bandwidth but different switch points or copy rates
// therefore price the same payload differently, which is what lets the
// planner tell a SAN-class edge from a TCP-class one.
func HopCost(p netsim.Params, nBytes int) float64 {
	fixed := p.Delivery()
	cost := fixed.Seconds() + p.TxTime(nBytes).Seconds()
	if p.SwitchPoint > 0 && nBytes > p.SwitchPoint {
		cost += float64(2 * fixed.Seconds()) // rendez-vous: REQUEST out, SENDOK back
	} else {
		cost += p.CopyTime(nBytes).Seconds() // eager: intermediary buffer copy
	}
	if p.NetworkBandwidth > 0 {
		trunk := p.TrunkTime(nBytes).Seconds()
		if wire := p.TxTime(nBytes).Seconds(); trunk > wire {
			cost += trunk - wire // a trunk slower than the pipe bounds the hop
		}
		cost += trunk // expected queueing behind one competing crossing
	}
	return cost
}

// edgeKey identifies an undirected pair edge on one network, for the
// edge-disjoint alternate search.
type edgeKey struct {
	lo, hi int
	net    string
}

func keyOf(a, b int, net string) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{lo: a, hi: b, net: net}
}

// Plan is the computed routing state: the indexed graph, its bloc
// partition, and lazily-built shortest-cost trees per source bloc,
// queryable per ordered pair, plus up to MaxPaths edge-disjoint
// alternates per pair.
type Plan struct {
	n          int
	ref        int
	maxPaths   int
	congestion []float64
	nets       map[string]netsim.Params
	netNames   []string // sorted, for deterministic iteration
	netCost    map[string]float64
	attached   []map[string]bool
	netMembers map[string][]int // attached ranks per net, ascending

	// Integer-indexed mirrors of the string-keyed tables, in netNames
	// order (so ascending net id == ascending net name): the lazy
	// Dijkstras walk these instead of hashing strings in their inner
	// loops.
	netIdx         map[string]int
	netCostByID    []float64
	netMembersByID [][]int // attached ranks per net id, ascending
	blocSigIDs     [][]int // per bloc, attached net ids ascending

	// Bloc partition: blocOf[r] is the bloc id of rank r; blocs are
	// numbered in ascending order of their lowest member, so a bloc's id
	// order equals its representative-rank order.
	blocOf       []int
	blocs        []bloc
	netBlocsByID [][]int // attached bloc ids per net id, ascending

	qts map[int]*quotientTree // lazily built per source bloc
	alt map[[2]int][][]Hop    // lazily computed disjoint path sets per pair
}

// bloc is one equivalence class of ranks with identical network
// signature and congestion term. members is ascending; members[0] is the
// representative that relays when the bloc sits interior on a routed path.
type bloc struct {
	members []int
	sig     []string // sorted net names, no duplicates
}

// ComputeOpts builds the routing state under the given options. This is
// O(N + nets): attachment indexes and the bloc partition only. All
// shortest-path trees are computed lazily on first query and cached per
// source bloc.
func ComputeOpts(g Graph, opts Options) *Plan {
	p := newPlan(g, opts)
	p.buildBlocs()
	return p
}

// newPlan indexes the graph: per-network reference costs, per-rank
// attachment sets, and per-network member lists (the real adjacency the
// lazy Dijkstras walk).
func newPlan(g Graph, opts Options) *Plan {
	if opts.RefBytes <= 0 {
		opts.RefBytes = DefaultRefBytes
	}
	if opts.MaxPaths < 1 {
		opts.MaxPaths = 1
	}
	p := &Plan{
		n:        g.N,
		ref:      opts.RefBytes,
		maxPaths: opts.MaxPaths,
		nets:     g.Nets,
		qts:      make(map[int]*quotientTree),
		alt:      make(map[[2]int][][]Hop),
	}
	if opts.Congestion != nil {
		p.congestion = make([]float64, g.N)
		copy(p.congestion, opts.Congestion)
	}

	netCost := make(map[string]float64, len(g.Nets))
	names := make([]string, 0, len(g.Nets))
	for name, params := range g.Nets {
		netCost[name] = HopCost(params, opts.RefBytes)
		names = append(names, name)
	}
	sort.Strings(names)
	attached := make([]map[string]bool, g.N)
	members := make(map[string][]int, len(g.Nets))
	for i := 0; i < g.N; i++ {
		attached[i] = make(map[string]bool, len(g.NetsOf[i]))
		for _, nm := range g.NetsOf[i] {
			if !attached[i][nm] {
				attached[i][nm] = true
				members[nm] = append(members[nm], i)
			}
		}
	}
	p.netNames, p.netCost, p.attached, p.netMembers = names, netCost, attached, members
	p.netIdx = make(map[string]int, len(names))
	p.netCostByID = make([]float64, len(names))
	p.netMembersByID = make([][]int, len(names))
	for i, nm := range names {
		p.netIdx[nm] = i
		p.netCostByID[i] = netCost[nm]
		p.netMembersByID[i] = members[nm]
	}
	return p
}

const unreached = -2

// cheapestEdge returns the cheapest non-banned network both procs are
// attached to and its hop cost at the reference payload.
func (p *Plan) cheapestEdge(a, b int, banned map[edgeKey]bool) (net string, cost float64, ok bool) {
	// Iterate the smaller attachment set in sorted-name order (signatures
	// are sorted): same min-cost-then-earliest-name result as scanning
	// every network, without touching the ones neither proc is on.
	small, big := a, b
	if len(p.sigOf(b)) < len(p.sigOf(a)) {
		small, big = b, a
	}
	other := p.attached[big]
	for _, nm := range p.sigOf(small) {
		if !other[nm] {
			continue
		}
		if banned != nil && banned[keyOf(a, b, nm)] {
			continue
		}
		if c := p.netCost[nm]; !ok || c < cost {
			net, cost, ok = nm, c, true
		}
	}
	return net, cost, ok
}

// sigOf returns rank r's sorted, deduplicated network signature.
func (p *Plan) sigOf(r int) []string {
	return p.blocs[p.blocOf[r]].sig
}

// DirectEdge returns the cheapest network both procs are attached to and
// its hop cost at the reference payload; ok=false when they share none.
// Single-hop fallback for sessions without gateway forwarding, where the
// planner's multi-hop preference cannot be honored.
func (p *Plan) DirectEdge(a, b int) (net string, cost float64, ok bool) {
	return p.cheapestEdge(a, b, nil)
}

// N returns the number of procs planned over.
//
//madlint:ignore deadexport bench/ uses it
func (p *Plan) N() int { return p.n }

// CongestionOf returns the congestion term the plan was computed with for
// a rank (0 when none was supplied).
//
//madlint:ignore deadexport tests in another package call it (cluster's adaptive re-planning tests)
func (p *Plan) CongestionOf(rank int) float64 {
	if p.congestion == nil {
		return 0
	}
	return p.congestion[rank]
}

// Cost returns the path cost in seconds at the reference payload
// (including any congestion terms the plan was computed with); ok=false
// when unroutable.
func (p *Plan) Cost(src, dst int) (float64, bool) {
	if src == dst {
		return 0, true
	}
	bs, bd := p.blocOf[src], p.blocOf[dst]
	if bs == bd {
		_, c, ok := p.cheapestEdge(src, dst, nil)
		return c, ok
	}
	t := p.quotientFor(bs)
	if t.prevNR[bd] == unreached {
		return 0, false
	}
	return t.dist[bd], true
}

// Path returns the hops from src to dst, excluding src and including dst;
// nil, false when unroutable. A direct pair returns one hop. It is read
// off the bloc chain: the representative of each interior bloc relays, and
// each hop rides the cheapest (then lexicographically first) network the
// two endpoints share — exactly the dense planner's prev/prevNet choices.
func (p *Plan) Path(src, dst int) ([]Hop, bool) {
	if src == dst {
		return nil, true
	}
	bs, bd := p.blocOf[src], p.blocOf[dst]
	if bs == bd {
		nm, _, ok := p.cheapestEdge(src, dst, nil)
		if !ok {
			return nil, false
		}
		return []Hop{{Rank: dst, Net: nm}}, true
	}
	t := p.quotientFor(bs)
	if t.prevNR[bd] == unreached {
		return nil, false
	}
	rev := []int{dst}
	for b := bd; ; {
		pb, isRoot := p.hierStep(t, src, b)
		if isRoot {
			break
		}
		rev = append(rev, p.rep(pb))
		b = pb
	}
	hops := make([]Hop, len(rev))
	at := src
	for i := len(rev) - 1; i >= 0; i-- {
		r := rev[i]
		nm, _, _ := p.cheapestEdge(at, r, nil)
		hops[len(rev)-1-i] = Hop{Rank: r, Net: nm}
		at = r
	}
	return hops, true
}

// Hops returns the path length from src to dst (1 = direct neighbours,
// 0 = self), or -1 when unroutable. Leader election sums hop counts over
// whole clusters, so this counts the chain without materializing it.
func (p *Plan) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	bs, bd := p.blocOf[src], p.blocOf[dst]
	if bs == bd {
		if _, _, ok := p.cheapestEdge(src, dst, nil); !ok {
			return -1
		}
		return 1
	}
	t := p.quotientFor(bs)
	if t.prevNR[bd] == unreached {
		return -1
	}
	if t.srcFree {
		return t.hops[bd]
	}
	n := 0
	for b := bd; ; {
		pb, isRoot := p.hierStep(t, src, b)
		n++
		if isRoot {
			return n
		}
		b = pb
	}
}

// pathFrom reconstructs the src->dst hop list from one Dijkstra result.
func pathFrom(prev []int, prevNet []string, src, dst int) []Hop {
	var rev []Hop
	for v := dst; v != src; v = prev[v] {
		rev = append(rev, Hop{Rank: v, Net: prevNet[v]})
	}
	hops := make([]Hop, len(rev))
	for i := range rev {
		hops[i] = rev[len(rev)-1-i]
	}
	return hops
}

// Paths returns up to MaxPaths edge-disjoint paths from src to dst, most
// preferred first: paths[0] is the primary shortest-cost path, each
// alternate is the shortest path over the graph with every (pair, network)
// edge of the earlier paths removed. nil, false when unroutable; nil, true
// for src == dst. With MaxPaths == 1 it is Path in a slice.
func (p *Plan) Paths(src, dst int) ([][]Hop, bool) {
	if src == dst {
		return nil, true
	}
	primary, ok := p.Path(src, dst)
	if !ok {
		return nil, false
	}
	key := [2]int{src, dst}
	if cached, ok := p.alt[key]; ok {
		return cached, true
	}
	paths := [][]Hop{primary}
	if p.maxPaths > 1 {
		banned := make(map[edgeKey]bool)
		for len(paths) < p.maxPaths {
			at := src
			for _, h := range paths[len(paths)-1] {
				banned[keyOf(at, h.Rank, h.Net)] = true
				at = h.Rank
			}
			t := p.dijkstraFrom(src, banned)
			if t.prev[dst] == unreached {
				break // the residual graph disconnects: no further disjoint rail
			}
			paths = append(paths, pathFrom(t.prev, t.prevNet, src, dst))
		}
	}
	p.alt[key] = paths
	return paths, true
}

// PathInfo is what a path is worth, in the one walk over its hops that
// rail installation, link classification and the tuning table's links all
// read from.
type PathInfo struct {
	// Cost is the path's wire cost in seconds at the reference payload
	// (the sum of its HopCosts): what rails are ranked and capped by.
	// Bottleneck is its most expensive hop, the pacing rate of a
	// pipelined segment train riding it (the other hops only add fill).
	Cost, Bottleneck float64
	// Segment is the smallest PipelineSegment along the path (the
	// bottleneck hop paces a relay pipeline); Switch the smallest native
	// eager->rendez-vous switch point, the largest payload that rides the
	// eager path on every hop (hops without one don't constrain it, 0 when
	// none has one).
	Segment, Switch int
	// Class is the dominating (slowest-tier) device class along the path:
	// any TCP-class hop makes it TCP-class end to end; ClassSelf for none.
	Class DeviceClass
	// LatencyUS and DeliverUS sum every hop's wire latency and Delivery,
	// SendUS is the first hop's injection overhead, in microseconds;
	// BandwidthMBs is the slowest hop's bandwidth and SharedMBs the
	// narrowest capped trunk's (0 when none is capped), in paper MB/s.
	LatencyUS, DeliverUS, SendUS float64
	BandwidthMBs, SharedMBs      float64
}

// Info walks hops over the networks' cost models, pricing them at a
// payload of ref bytes. It needs no plan, so a session without one (ch_p4)
// summarizes its networks the same way.
func Info(nets map[string]netsim.Params, hops []Hop, ref int) PathInfo {
	var in PathInfo
	for i, h := range hops {
		p := nets[h.Net]
		c := HopCost(p, ref)
		in.Cost += c
		in.Bottleneck = max(in.Bottleneck, c)
		in.Segment = lower(in.Segment, p.PipelineSegment())
		in.Switch = lower(in.Switch, p.SwitchPoint)
		in.Class = max(in.Class, ClassOf(p))
		lat, bw := p.LatencyBandwidth()
		in.LatencyUS += lat
		in.DeliverUS += p.Delivery().Micros()
		if i == 0 {
			in.SendUS = p.SendOverhead.Micros()
		}
		in.BandwidthMBs = lower(in.BandwidthMBs, bw)
		in.SharedMBs = lower(in.SharedMBs, p.NetworkBandwidth/netsim.MB)
	}
	return in
}

// lower folds v into the running minimum m of the positive values seen so
// far (0 while there is none).
func lower[T int | float64](m, v T) T {
	if v > 0 && (m == 0 || v < m) {
		return v
	}
	return m
}

// Info summarizes an explicit hop list at the plan's reference payload.
func (p *Plan) Info(hops []Hop) PathInfo { return Info(p.nets, hops, p.ref) }
