package cluster

// Hierarchy discovery: derive the cluster-of-clusters structure the
// two-level MPI collectives need (internal/mpi/topology.go) from the
// declarative topology. A "cluster" is the set of nodes whose fastest
// attached network is the same physical network: the SCI island, the
// Myrinet island, the set of backbone-only nodes. Networks that span more
// than one such cluster are backbones; the fastest of them becomes the
// hierarchy's inter-cluster link.

import (
	"math"
	"slices"
	"sort"
	"strings"

	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// fastestNet returns the highest-bandwidth network attached to a node
// (ties broken by name for determinism), or "" for an unnetworked node.
func (sess *Session) fastestNet(node string) string {
	best := ""
	var bw float64 = -1
	names := append([]string(nil), sess.netsOfNode[node]...)
	sort.Strings(names)
	for _, name := range names {
		if p := sess.Networks[name].Params; p.Bandwidth > bw {
			best, bw = name, p.Bandwidth
		}
	}
	return best
}

// discoverHierarchy groups ranks into clusters and summarizes the intra-
// and inter-cluster links for the collective tuning table. maxSegment,
// when positive, caps the backbone pipeline segment at the session's
// single globally elected eager threshold — only uniform single-threshold
// sessions pass one. Per-link mux sessions pass 0: each network's
// PipelineSegment is already clamped by its own native switch point, and
// routedInter additionally clamps multi-hop backbone paths by the
// smallest switch point actually along them, so broadcast segments never
// trigger a rendez-vous round-trip per segment on any hop.
func (sess *Session) discoverHierarchy(maxSegment int) *mpi.Hierarchy {
	h := &mpi.Hierarchy{ClusterOf: make([]int, len(sess.places))}
	clusterIdx := make(map[string]int) // cluster key -> dense id, by first rank
	for r, pl := range sess.places {
		key := sess.fastestNet(pl.node)
		if key == "" {
			key = "node:" + pl.node // unnetworked node: its own cluster
		}
		id, ok := clusterIdx[key]
		if !ok {
			id = len(h.ClusterNames)
			clusterIdx[key] = id
			h.ClusterNames = append(h.ClusterNames, key)
			h.Intra = append(h.Intra, sess.linkFor(key, 0))
		}
		h.ClusterOf[r] = id
	}

	// The backbone is the fastest network spanning several clusters (none
	// does when there is one cluster).
	spanning := sess.spanning(h)
	best, bw := "", -1.0
	for _, name := range spanning {
		if p := sess.Networks[name].Params; p.Bandwidth > bw {
			best, bw = name, p.Bandwidth
		}
	}
	if best != "" {
		h.Inter = sess.linkFor(best, maxSegment)
	}
	sess.electLeaders(h)
	sess.electLeaderSets(h, spanning)
	sess.routedInter(h, maxSegment)
	sess.hier = h
	return h
}

// electLeaders installs the gateway-aware preferred leader of each
// cluster — bestFront over all its members. On bridged topologies this
// puts leaders on the gateway nodes, so leader-level exchanges skip the
// extra intra-cluster hop the lowest-rank convention would pay. Needs the
// routing plan (ch_mad sessions); single-cluster jobs and the
// ObliviousLeaders ablation keep the default lowest-rank leaders.
func (sess *Session) electLeaders(h *mpi.Hierarchy) {
	if sess.plan == nil || len(h.ClusterNames) < 2 || sess.Topo.ObliviousLeaders {
		return
	}
	leaders := make([]int, len(h.ClusterNames))
	for c, ms := range membersOf(h) {
		if leaders[c] = sess.bestFront(h, c, ms, ""); leaders[c] < 0 {
			leaders[c] = ms[0] // nothing reachable: keep the default
		}
	}
	h.Leaders = leaders
}

// bestFront returns the member of cluster c best placed to front it: the
// one whose routed paths to every rank outside the cluster cross the
// fewest gateways (total hop count), path cost then rank breaking ties. A
// non-empty net admits only members attached to that network. -1 when no
// candidate reaches every outside rank.
//
// On a congestion-free plan only one candidate per routing bloc is
// evaluated: co-bloc members have identical hop and cost sums to every
// outside rank (swapping them is a graph automorphism), and the
// strict-improvement rule below keeps the earliest optimum, so skipping
// the later co-members cannot change the winner — it just cuts the
// election from O(members) to O(blocs) candidates per cluster. Congested
// plans (adaptive re-plans) carry per-rank congestion terms that break
// the symmetry, so there every member is still scored exactly.
func (sess *Session) bestFront(h *mpi.Hierarchy, c int, members []int, net string) int {
	byBloc := !sess.plan.Congested()
	scored := make(map[int]bool, 4)
	best, bestHops, bestCost := -1, 0, 0.0
	for _, r := range members {
		if net != "" && !sess.attached(r, net) {
			continue
		}
		if byBloc {
			b := sess.plan.BlocOf(r)
			if scored[b] {
				continue // co-bloc: identical sums, cannot beat its representative
			}
			scored[b] = true
		}
		hops, cost, reach := 0, 0.0, true
		for s, sc := range h.ClusterOf {
			if sc == c {
				continue
			}
			hp := sess.plan.Hops(r, s)
			if hp < 0 {
				reach = false
				break
			}
			pc, _ := sess.plan.Cost(r, s)
			hops += hp
			cost += pc
		}
		if reach && (best < 0 || hops < bestHops || (hops == bestHops && cost < bestCost)) {
			best, bestHops, bestCost = r, hops, cost
		}
	}
	return best
}

// electLeaderSets widens each cluster's elected leader into a
// gateway-diverse leader *set*: one co-leader per distinct cluster-
// spanning network the cluster touches, so the multi-leader collectives
// can shard the inter-cluster phase across every gateway concurrently.
// The primary leader anchors position 0; each remaining network of
// spanning (sorted by name for determinism) elects its bestFront among the members
// attached to it. Clusters behind a single gateway — or none — get a
// one-element set, which keeps the multi-leader algorithms off the
// autotuner's candidate list there.
func (sess *Session) electLeaderSets(h *mpi.Hierarchy, spanning []string) {
	if h.Leaders == nil || len(spanning) == 0 {
		return
	}
	sets := make([][]int, len(h.ClusterNames))
	gws := make([][]string, len(h.ClusterNames))
	for c, ms := range membersOf(h) {
		primary := h.Leaders[c]
		set, gw := []int{primary}, []string{""}
		for _, net := range spanning {
			if sess.attached(primary, net) {
				gw[0] = net // the primary's own gateway (first by name)
				break
			}
		}
		for _, net := range spanning {
			if net == gw[0] {
				continue // the primary already fronts this gateway
			}
			// Skipped when no member of this cluster fronts net, or when
			// the one that does is already in the set.
			if best := sess.bestFront(h, c, ms, net); best >= 0 && !slices.Contains(set, best) {
				set = append(set, best)
				gw = append(gw, net)
			}
		}
		sets[c], gws[c] = set, gw
	}
	h.LeaderSets, h.LeaderGateways = sets, gws
}

// routedInter recalibrates the backbone link when leader-level exchanges
// are actually multi-hop (bridged topologies under forwarding): the
// spanning-network summary understates a path that relays through
// gateways, which would mislead the analytic tuning thresholds and the
// broadcast segmentation rule. The link becomes the worst routed
// leader-pair path: latency summed over the hops, bandwidth and pipeline
// segment of the bottleneck hop.
func (sess *Session) routedInter(h *mpi.Hierarchy, maxSegment int) {
	if sess.plan == nil || h.Leaders == nil || !sess.Topo.Forwarding {
		return
	}
	worst, wa, wb := 0.0, -1, -1
	for i := 0; i < len(h.Leaders); i++ {
		for j := i + 1; j < len(h.Leaders); j++ {
			if sess.plan.Hops(h.Leaders[i], h.Leaders[j]) <= 1 {
				continue
			}
			if c, ok := sess.plan.Cost(h.Leaders[i], h.Leaders[j]); ok && c > worst {
				worst, wa, wb = c, h.Leaders[i], h.Leaders[j]
			}
		}
	}
	if wa < 0 {
		return // every leader pair is direct: the spanning link is honest
	}
	hops, _ := sess.plan.Path(wa, wb)
	var latUS, deliverUS float64
	var bwMBs, sharedMBs float64
	seg := 0
	names := make([]string, 0, len(hops))
	for _, hop := range hops {
		p := sess.Networks[hop.Net].Params
		lat, bw := p.LatencyBandwidth()
		latUS += lat
		deliverUS += deliveryOf(&p).Micros()
		if bwMBs == 0 || bw < bwMBs {
			bwMBs = bw
		}
		if sh := p.NetworkBandwidth / netsim.MB; sh > 0 && (sharedMBs == 0 || sh < sharedMBs) {
			sharedMBs = sh
		}
		if s := p.PipelineSegment(); seg == 0 || s < seg {
			seg = s
		}
		names = append(names, hop.Net)
	}
	// Per-link thresholds: a pipelined segment must stay on the eager
	// path of every hop of its actual route, so the bound is the smallest
	// native switch point along this path — not one session-global
	// election (which would either over-constrain a fast-threshold path
	// or let a segment trip rendez-vous on a slow-threshold hop).
	if sw := sess.plan.PathSwitchOf(hops); sw > 0 && seg > sw {
		seg = sw
	}
	if maxSegment > 0 && seg > maxSegment {
		seg = maxSegment
	}
	h.Inter = mpi.Link{
		Net:          "routed(" + strings.Join(names, "+") + ")",
		LatencyUS:    latUS,
		BandwidthMBs: bwMBs,
		SegmentBytes: seg,
		SharedMBs:    sharedMBs,
		// The first hop's injection cost, every hop's delivery, the slowest
		// hop's (or trunk's) byte time.
		SendUS:    sess.Networks[hops[0].Net].Params.SendOverhead.Micros(),
		DeliverUS: deliverUS,
		ByteUS:    byteUS(bwMBs, sharedMBs),
	}
}

// deliveryOf is the time from the start of a send over one network to the
// message being in the receiving rank's hands, less its bytes' time: both
// overheads, the wire and the ch_mad handling.
func deliveryOf(p *netsim.Params) vtime.Duration {
	return p.SendOverhead + p.WireLatency + p.RecvOverhead + p.DeviceHandling
}

// byteUS is the microseconds a byte adds to a message on a link of bwMBs
// whose trunk, when capped, all crossings share at sharedMBs.
func byteUS(bwMBs, sharedMBs float64) float64 {
	if sharedMBs > 0 {
		bwMBs = sharedMBs
	}
	return 1e6 / (bwMBs * netsim.MB)
}

// membersOf lists the world ranks of each cluster, ascending, in cluster
// order.
func membersOf(h *mpi.Hierarchy) [][]int {
	out := make([][]int, len(h.ClusterNames))
	for r, c := range h.ClusterOf {
		out[c] = append(out[c], r)
	}
	return out
}

// attached reports whether rank r's node is on the network.
func (sess *Session) attached(r int, netName string) bool {
	return slices.Contains(sess.netsOfNode[sess.places[r].node], netName)
}

// spanning lists, sorted by name, the networks that connect nodes of at
// least two different clusters.
func (sess *Session) spanning(h *mpi.Hierarchy) []string {
	var out []string
	for name := range sess.Networks {
		seen := -1
		for r := range sess.places {
			if !sess.attached(r, name) {
				continue
			}
			if seen == -1 {
				seen = h.ClusterOf[r]
			} else if h.ClusterOf[r] != seen {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Bounds on the BDP-derived relay credit window: deep enough that even a
// near-zero-latency backbone keeps a couple of segments in flight, and
// shallow enough that a hot gateway still backpressures its senders
// instead of buffering a whole collective.
const (
	minBDPWindow = 4
	maxBDPWindow = 64
)

// bdpRelayWindows sizes each backbone's relay credit window from its
// bandwidth-delay product: the segments a gateway must hold in flight to
// cover one round trip at full rate (BDP / pipeline segment), plus two
// segments of slack for the store-and-forward handoff, clamped to
// [minBDPWindow, maxBDPWindow]. Purely analytic — netsim parameters, no
// measurement — so the result is deterministic and cheap enough to
// recompute at every Build.
func (sess *Session) bdpRelayWindows(h *mpi.Hierarchy) map[string]int {
	windows := make(map[string]int)
	for _, name := range sess.spanning(h) {
		p := sess.Networks[name].Params
		seg := p.PipelineSegment()
		if seg <= 0 || p.Bandwidth <= 0 {
			continue
		}
		rtt := 2 * deliveryOf(&p)
		w := int(math.Ceil(p.Bandwidth*rtt.Seconds()/float64(seg))) + 2
		if w < minBDPWindow {
			w = minBDPWindow
		}
		if w > maxBDPWindow {
			w = maxBDPWindow
		}
		windows[name] = w
	}
	return windows
}

// linkFor summarizes one network as a tuning-table link. maxSegment > 0
// caps the pipeline segment (devices' elected eager threshold).
func (sess *Session) linkFor(netName string, maxSegment int) mpi.Link {
	var params netsim.Params
	if net, ok := sess.Networks[netName]; ok {
		params = net.Params
	} else {
		// Unnetworked single-node cluster: intra-node shared memory.
		params = netsim.SharedMemory()
	}
	lat, bw := params.LatencyBandwidth()
	seg := params.PipelineSegment()
	if maxSegment > 0 && seg > maxSegment {
		seg = maxSegment
	}
	shared := params.NetworkBandwidth / netsim.MB
	return mpi.Link{
		Net: netName, LatencyUS: lat, BandwidthMBs: bw, SegmentBytes: seg, SharedMBs: shared,
		SendUS: params.SendOverhead.Micros(), DeliverUS: deliveryOf(&params).Micros(), ByteUS: byteUS(bw, shared),
	}
}

// Hierarchy returns the discovered cluster structure (also installed on
// every rank's mpi.Process at build time).
func (sess *Session) Hierarchy() *mpi.Hierarchy { return sess.hier }

// RankNode returns the node a world rank is placed on.
func (sess *Session) RankNode(rank int) string { return sess.places[rank].node }

// Clusters returns the world ranks of each cluster, in cluster order.
func (sess *Session) Clusters() [][]int { return membersOf(sess.hier) }
