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
	"mpichmad/internal/route"
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
// and inter-cluster links for the collective tuning table, and every
// network for the multi-leader forms' pipeline sizes. maxSegment, when
// positive, caps the backbone's and every network's pipeline segment and
// switch point at the session's single globally elected eager threshold —
// only uniform single-threshold sessions pass one. Per-link mux sessions
// pass 0: each network's PipelineSegment is already clamped by its own
// native switch point, so a path's smallest segment is at most the switch
// point of its slowest-threshold hop, and broadcast segments never trigger
// a rendez-vous round-trip per segment on any hop.
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
	h.Nets = make(map[string]mpi.Link, len(sess.Networks))
	for name := range sess.Networks {
		h.Nets[name] = sess.linkOf(name, []route.Hop{{Net: name}}, maxSegment)
	}
	if best != "" {
		h.Inter = h.Nets[best]
	}
	sess.electLeaders(h, spanning)
	sess.routedInter(h, maxSegment)
	sess.hier = h
	return h
}

// electLeaders installs each cluster's leader set, preferred leader first.
// The preferred leader is the gateway-aware one — bestFront over all the
// cluster's members — and fronts the first spanning network (by name) it is
// attached to. On bridged topologies this puts leaders on the gateway
// nodes, so leader-level exchanges skip the extra intra-cluster hop the
// lowest-rank convention would pay. Each other spanning network the
// cluster touches then adds its bestFront among the members attached to
// it, unless no member fronts it or the one that does is already in the
// set: one co-leader per distinct gateway, so the multi-leader collectives
// can shard the inter-cluster phase across every gateway concurrently.
// Clusters behind a single gateway — or none — get a one-element set,
// which keeps the multi-leader algorithms off the autotuner's candidate
// list there. Needs the routing plan (ch_mad sessions); single-cluster
// jobs and the ObliviousLeaders ablation keep the default lowest-rank
// leaders.
func (sess *Session) electLeaders(h *mpi.Hierarchy, spanning []string) {
	if sess.plan == nil || len(h.ClusterNames) < 2 || sess.Topo.ObliviousLeaders {
		return
	}
	sets := make([][]mpi.Leader, len(h.ClusterNames))
	for c, ms := range membersOf(h) {
		lead := mpi.Leader{Rank: sess.bestFront(h, c, ms, "")}
		if lead.Rank < 0 {
			lead.Rank = ms[0] // nothing reachable: keep the default
		}
		if i := slices.IndexFunc(spanning, func(net string) bool { return sess.attached(lead.Rank, net) }); i >= 0 {
			lead.Gateway = spanning[i]
		}
		set := []mpi.Leader{lead}
		for _, net := range spanning {
			if net == lead.Gateway {
				continue
			}
			best := sess.bestFront(h, c, ms, net)
			if best >= 0 && !slices.ContainsFunc(set, func(l mpi.Leader) bool { return l.Rank == best }) {
				set = append(set, mpi.Leader{Rank: best, Gateway: net})
			}
		}
		sets[c] = set
	}
	h.Leaders = sets
}

// bestFront returns the member of cluster c best placed to front it: the
// one whose routed paths to every rank outside the cluster cross the
// fewest gateways (total hop count), path cost then rank breaking ties. A
// non-empty net admits only members attached to that network. -1 when no
// candidate reaches every outside rank.
//
// Only one candidate per routing bloc is evaluated: co-bloc members share
// their network signature and congestion term, so they have identical hop
// and cost sums to every outside rank (swapping them is a graph
// automorphism), and the strict-improvement rule below keeps the earliest
// optimum, so skipping the later co-members cannot change the winner — it
// just cuts the election from O(members) to O(blocs) candidates per
// cluster.
func (sess *Session) bestFront(h *mpi.Hierarchy, c int, members []int, net string) int {
	scored := make(map[int]bool, 4)
	best, bestHops, bestCost := -1, 0, 0.0
	for _, r := range members {
		if net != "" && !sess.attached(r, net) {
			continue
		}
		b := sess.plan.BlocOf(r)
		if scored[b] {
			continue // co-bloc: identical sums, cannot beat its representative
		}
		scored[b] = true
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

// routedInter recalibrates the backbone link when leader-level exchanges
// are actually multi-hop (bridged topologies under forwarding): the
// spanning-network summary understates a path that relays through
// gateways, which would mislead the analytic tuning thresholds and the
// broadcast segmentation rule. The link becomes the worst routed
// leader-pair path's.
func (sess *Session) routedInter(h *mpi.Hierarchy, maxSegment int) {
	if sess.plan == nil || h.Leaders == nil || !sess.Topo.Forwarding {
		return
	}
	worst, wa, wb := 0.0, -1, -1
	for i := range h.Leaders {
		for j := i + 1; j < len(h.Leaders); j++ {
			a, b := h.Leaders[i][0].Rank, h.Leaders[j][0].Rank
			if sess.plan.Hops(a, b) <= 1 {
				continue
			}
			if c, ok := sess.plan.Cost(a, b); ok && c > worst {
				worst, wa, wb = c, a, b
			}
		}
	}
	if wa < 0 {
		return // every leader pair is direct: the spanning link is honest
	}
	hops, _ := sess.plan.Path(wa, wb)
	names := make([]string, len(hops))
	for i, hop := range hops {
		names[i] = hop.Net
	}
	h.Inter = sess.linkOf("routed("+strings.Join(names, "+")+")", hops, maxSegment)
}

// linkOf summarizes a path as the tuning-table link named name: latency
// and delivery summed over the hops, the first hop's injection, the
// bandwidth, trunk, pipeline segment and switch point of the bottleneck
// hops, the dominating class. A network's link is its one-hop path's.
// maxSegment > 0 caps the pipeline segment and the switch point (devices'
// elected eager threshold).
func (sess *Session) linkOf(name string, hops []route.Hop, maxSegment int) mpi.Link {
	in := route.Info(sess.graph.Nets, hops, route.DefaultRefBytes)
	seg, sw := in.Segment, in.Switch
	if maxSegment > 0 {
		seg, sw = min(seg, maxSegment), min(sw, maxSegment)
	}
	return mpi.Link{
		Net: name, LatencyUS: in.LatencyUS, BandwidthMBs: in.BandwidthMBs, SegmentBytes: seg, SharedMBs: in.SharedMBs,
		SwitchBytes: sw, Class: in.Class.String(),
		SendUS: in.SendUS, DeliverUS: in.DeliverUS, ByteUS: byteUS(in.BandwidthMBs, in.SharedMBs),
	}
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
		rtt := 2 * p.Delivery()
		w := int(math.Ceil(p.Bandwidth*rtt.Seconds()/float64(seg))) + 2
		windows[name] = min(max(w, minBDPWindow), maxBDPWindow)
	}
	return windows
}

// Hierarchy returns the discovered cluster structure (also installed on
// every rank's mpi.Process at build time).
func (sess *Session) Hierarchy() *mpi.Hierarchy { return sess.hier }

// RankNode returns the node a world rank is placed on.
func (sess *Session) RankNode(rank int) string { return sess.places[rank].node }

// Clusters returns the world ranks of each cluster, in cluster order.
func (sess *Session) Clusters() [][]int { return membersOf(sess.hier) }
