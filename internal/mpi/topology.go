package mpi

import (
	"fmt"
	"math/bits"
	"slices"

	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// Topology-aware collectives: hierarchy discovery metadata and the
// MPICH-style tuning table that selects between flat (topology-blind) and
// two-level (cluster-of-clusters) collective algorithms.
//
// The paper's motivating configuration is a federation of clusters whose
// intra-cluster fabrics (SISCI/SCI, BIP/Myrinet) are one to two orders of
// magnitude faster than the inter-cluster backbone (TCP/Fast-Ethernet).
// A flat binomial tree is oblivious to that gap: its tree edges cross the
// slow backbone O(log n) — and for unlucky rank placements O(n) — times
// per operation. The two-level algorithms in hcoll.go instead run a fast
// binomial phase inside each cluster and exchange data between designated
// cluster leaders exactly once per slow link per direction.
//
// The cluster session (internal/cluster) discovers the hierarchy from the
// declarative topology — which nodes share a fast network — and installs
// it on every rank's Process via SetHierarchy. Communicators derive their
// own dense view (commTopo) lazily, so Split/Dup sub-communicators get
// hierarchy awareness for free. The view is per group, not per rank: all
// of it but the rank's own position (groupView) is the same on every
// member. For the identity group — the world and its Dups, recognised by
// the group slice they share — the first rank to need it builds it and
// leaves it on the Hierarchy, which the ranks of a session hold in common;
// RefreshHierarchy drops it there as it drops the world's own cached view,
// because a re-plan re-elects that Hierarchy in place. A view is replaced,
// never edited, so a Dup that has compiled against one keeps it. A Split
// builds its group's view on every member (the same builder, no sharing).
//
// The tree the leaders form is derived from the backbone, not fixed
// (logGPTree, leaderTree, twoLevelTree at the end of this file). Its inputs
// are the leader count, the message size and Hierarchy.Inter's LogGP numbers
// (SendUS, DeliverUS, ByteUS), which the cluster session reads off
// netsim.Params: there is no shape to choose and no threshold to set. The
// greedy LogGP broadcast — whoever is informed and free soonest sends next —
// is flatter than binomial where delivery costs several injections (the TCP
// backbone: 124 µs against 30) and becomes the binomial tree by itself as
// the per-byte term swamps that difference (16 KiB on the capped trunk). No
// leader sends more than ⌈log2 n⌉ messages, so a root leaves the operation as
// early as it did under the binomial tree; leaders are numbered top-down, the
// k-th informed taking relative index n − k, which for two and three leaders
// is binomialOver's tree and send order exactly — trees on up to three
// clusters do not depend on the link. The same numbers decide whether an
// Allreduce's leaders use the tree at all — up and down it is two crossings
// in a row — or exchange their partials all-pairs in one round, L−1 sends
// each, every one of the L·(L−1) messages on the trunk when it is capped.
// Shape and choice are built once per group and message size, kept on the
// groupView the members share, and recorded as a "tree.leader" ctrl instant.
// Inside a cluster the tree stays binomial.
//
// Selection between algorithms goes through a small tuning table (message
// size × topology shape → algorithm), mirroring MPICH's coll_tuned
// framework; the flat algorithms remain both the single-cluster fast path
// and the cross-check reference for the equivalence property tests.

// Link describes one network class of the hierarchy in plain numbers
// (derived from the netsim cost model by the cluster session), enough for
// the tuning table to reason about latency/bandwidth tradeoffs without
// depending on the simulator.
type Link struct {
	// Net is the network name from the topology (e.g. "sci", "ethernet").
	Net string
	// LatencyUS is the one-way wire latency in microseconds.
	LatencyUS float64
	// BandwidthMBs is the sustained bandwidth in paper MB/s (2^20 B).
	BandwidthMBs float64
	// SegmentBytes is the recommended pipeline segment size for
	// store-and-forward stages over this link: netsim.Params.PipelineSegment
	// of a network, capped at the elected threshold in a uniform session.
	// For Inter on a forwarded topology whose leaders are not all one hop
	// apart it is the worst routed leader-pair path's smallest, not one
	// network's.
	SegmentBytes int
	// SwitchBytes is a network's native eager->rendez-vous threshold
	// (netsim.Params.SwitchPoint) and Class its device class ("san", "wan",
	// ...), whose threshold measured at MPI_Init, when there is one, replaces
	// it (Comm.eagerBytes). A routed Inter carries its path's smallest
	// threshold and dominating class.
	SwitchBytes int
	Class       string
	// SharedMBs is the link's aggregate trunk capacity in paper MB/s when
	// the network models shared-bandwidth contention
	// (netsim.Params.NetworkBandwidth); 0 means private per-pair pipes.
	// A capped backbone makes every extra crossing queue, which moves the
	// flat-vs-two-level crossover sharply toward two-level.
	SharedMBs float64
	// SendUS, DeliverUS and ByteUS are the link's LogGP numbers, in
	// microseconds: a message of b bytes keeps its sender busy for
	// SendUS + b·ByteUS (o: netsim.Params.SendOverhead) and is in the
	// receiver's hands DeliverUS + b·ByteUS after the send began (send and
	// receive overheads, wire latency, device handling); ByteUS is one over
	// the trunk's capacity when it is capped, over the pipe's otherwise.
	// The leader level of the two-level trees, and whether an Allreduce's
	// leaders exchange instead, is derived from them (leaderTree); all zero
	// — no estimate — yields the binomial shape and keeps the tree.
	SendUS, DeliverUS, ByteUS float64
}

// Hierarchy is the per-job cluster structure, indexed by world rank. It is
// immutable after MPI_Init; all ranks hold identical copies.
type Hierarchy struct {
	// ClusterOf maps world rank -> cluster index.
	ClusterOf []int
	// ClusterNames names each cluster after its fast network.
	ClusterNames []string
	// Inter describes the slow inter-cluster backbone. Zero-valued when
	// the job spans a single cluster.
	Inter Link
	// Nets describes every network of the job by name — the cluster fabrics
	// and the bridges the co-leader couples cross (Leader.Gateway names
	// them) — which the multi-leader forms size their chunks and segments
	// by.
	Nets map[string]Link
	// Leaders, when non-nil, is each cluster's leader set, elected by the
	// cluster session from the routing plan. Its first entry is the
	// gateway-aware preferred leader (a rank on a gateway node, weighted by
	// path cost), which communicators use when it is a member and the
	// lowest comm rank of the cluster otherwise. The rest are co-leaders,
	// one per further distinct cluster-spanning network the cluster
	// touches: the multi-leader collectives shard the inter-cluster phase
	// across the set so each co-leader ships its shard over its own gateway
	// concurrently. Clusters behind a single gateway (or none) carry a
	// one-element set; nil keeps the lowest-rank convention everywhere.
	Leaders [][]Leader

	// world is the dense view of the identity group (the world communicator
	// and its Dups), shared by every rank holding this Hierarchy: built by
	// the first that needs it (Comm.topo), dropped by RefreshHierarchy.
	world *groupView
}

// Leader is one member of a cluster's leader set: a rank (a world rank on
// the Hierarchy, a comm rank in a communicator's view) and the spanning
// network it fronts ("" when it fronts none) — the bridge its couples
// cross, and a trace annotation.
type Leader struct {
	Rank    int
	Gateway string
}

// NumClusters returns the number of clusters in the hierarchy.
func (h *Hierarchy) NumClusters() int { return len(h.ClusterNames) }

// SetHierarchy installs the discovered cluster structure on this rank.
// Called by the cluster session between wiring and the first collective;
// nil (the default) keeps every collective on the flat algorithms.
func (p *Process) SetHierarchy(h *Hierarchy) { p.hier = h }

// RefreshHierarchy reinstalls a (possibly re-elected) cluster structure
// mid-run and invalidates the world communicator's cached dense view and
// the one the ranks share on h — Replan re-elects in place and passes the
// same pointer again, so a view left there would serve the old leaders —
// so the next collective compiles against the new leaders and backbone
// estimate: how an adaptive re-plan (cluster.Session.Replan) propagates
// between collective rounds. Must be called on every rank at a quiescent
// point (all ranks share the Hierarchy value, so agreement is free);
// sub-communicators that compiled a collective before the refresh keep
// their frozen view, preserving the MPI same-order rule for schedules
// already compiled.
func (p *Process) RefreshHierarchy(h *Hierarchy) {
	p.hier = h
	if h != nil {
		h.world = nil
	}
	if p.World != nil {
		p.World.ct = nil
	}
}

// CollMode forces or frees the collective algorithm selection (tests,
// benchmarks, ablations).
type CollMode int

const (
	// CollAuto consults the tuning table (the default): the autotuned
	// crossover table when MPI_Init ran the sweep, the analytic defaults
	// otherwise.
	CollAuto CollMode = iota
	// CollFlat forces the topology-blind binomial-tree algorithms.
	CollFlat
	// CollHier forces the two-level tree algorithms whenever the
	// communicator spans more than one cluster.
	CollHier
	// CollRing forces the flat bandwidth-optimal ring algorithms where an
	// operation has one (Allreduce, ReduceScatter); other operations fall
	// back to the flat trees.
	CollRing
	// CollHierRing forces the two-level ring algorithms (intra-cluster
	// ring phases around the single leader exchange) on multi-cluster
	// communicators; operations without a ring form use the two-level
	// trees.
	CollHierRing
	// CollHierMulti forces the multi-leader two-level algorithms: the
	// inter-cluster phase is sharded across each cluster's leader set so
	// every gateway carries a slice of the payload concurrently.
	// Operations without a multi-leader form — or communicators whose
	// leader sets all collapse to one rank — use the two-level trees.
	CollHierMulti
)

// SetCollMode overrides collective algorithm selection for this rank.
// Every rank of a communicator must use the same mode.
func (p *Process) SetCollMode(m CollMode) { p.collMode = m }

// groupView is the part of a dense view that depends on the group and the
// hierarchy alone: every rank of the communicator would build the same one.
// It is immutable once built and its slices are clipped, so a view shared
// between ranks can be neither edited nor appended into — but for trees,
// which only ever gains entries every member would compute alike.
type groupView struct {
	nClusters int
	// inter is the backbone the view was built under and trees the leader
	// level's shape per message size on it, each worked out by the first
	// rank to compile a tree collective of that size (leaderTree).
	inter     Link
	trees     map[int]*leaderTree
	clusterOf []int   // comm rank -> dense cluster index
	clusters  [][]int // dense cluster index -> comm ranks, ascending
	leaders   []int   // dense cluster index -> its leader, sets[di][0].Rank
	// sets maps each dense cluster to its in-communicator leader set, in
	// comm ranks, leader first; never empty.
	sets [][]Leader
	// widest is the widest leader set any cluster of the communicator
	// carries — the shard count K of the multi-leader Bcast, and how many
	// couples a cluster pair without a bridge of its own is given.
	widest int
	// relays[ci][cj] lists the co-leader couples that carry cluster ci's
	// traffic to cluster cj, one stripe each (see pairRelays). Built only
	// where a multi-leader form can run (widest > 1).
	relays [][][]relay
}

// relay is one co-leader couple of a directed cluster pair: x ships from the
// source cluster, y lands in the destination cluster and fronts gateway
// network gw. A direct couple is the two ends of one bridge — x fronts gw
// too, the transfer is a single hop no device relays; otherwise the fabric
// routes it.
type relay struct {
	x, y   int
	gw     string
	direct bool
}

// pairRelays lists the couples carrying ci's traffic to cj: every pair of
// co-leaders fronting the same gateway network, in cj's leader order; when
// the clusters share no bridge, the k-th co-leaders of both for every shard
// index k (leader sets wrap), repeats dropped.
func (g *groupView) pairRelays(ci, cj int) []relay {
	var rs []relay
	for _, y := range g.sets[cj] {
		if x := slices.IndexFunc(g.sets[ci], func(l Leader) bool { return l.Gateway == y.Gateway }); y.Gateway != "" && x >= 0 {
			rs = append(rs, relay{g.sets[ci][x].Rank, y.Rank, y.Gateway, true})
		}
	}
	if len(rs) > 0 {
		return rs
	}
	for k := 0; k < g.widest; k++ {
		x, y := g.coLeader(ci, k), g.coLeader(cj, k)
		if r := (relay{x.Rank, y.Rank, y.Gateway, false}); !slices.Contains(rs, r) {
			rs = append(rs, r)
		}
	}
	return rs
}

// commTopo is a communicator's dense view of the hierarchy: cluster
// membership restricted to the communicator's group and re-indexed, plus
// where this rank stands in it.
type commTopo struct {
	*groupView
	myCluster int
	remote    []int // every dense cluster index but myCluster, ascending
}

// coLeader returns shard k's co-leader in dense cluster di: leader sets
// narrower than the shard count wrap, so a single-gateway cluster funnels
// every shard through its one leader while wider clusters spread them.
func (g *groupView) coLeader(di, k int) Leader {
	ls := g.sets[di]
	return ls[k%len(ls)]
}

// topo returns the communicator's cached dense hierarchy view, or nil when
// no hierarchy is installed. The view of the identity group — the world's,
// which its Dups share slice and all — is the same on every rank, so the
// first rank to ask builds it and leaves it on the Hierarchy for the others.
func (c *Comm) topo() *commTopo {
	if c.ct != nil {
		return c.ct
	}
	h := c.p.hier
	if h == nil {
		return nil
	}
	world := &c.group[0] == &c.p.World.group[0]
	g := h.world
	if !world || g == nil {
		g = c.newGroupView(h)
		if world {
			h.world = g
		}
	}
	c.ct = g.viewFor(c.myRank)
	return c.ct
}

// newGroupView builds the rank-invariant part of the communicator's view of h.
func (c *Comm) newGroupView(h *Hierarchy) *groupView {
	g := &groupView{clusterOf: make([]int, len(c.group)), inter: h.Inter}
	dense := make(map[int]int) // world cluster id -> dense index
	var denseWorld []int       // dense index -> world cluster id
	for r, w := range c.group {
		wc := 0
		if w < len(h.ClusterOf) {
			wc = h.ClusterOf[w]
		}
		di, ok := dense[wc]
		if !ok {
			di = len(g.clusters)
			dense[wc] = di
			denseWorld = append(denseWorld, wc)
			g.clusters = append(g.clusters, nil)
		}
		g.clusterOf[r] = di
		g.clusters[di] = append(g.clusters[di], r)
	}
	// Leader sets: the elected leaders of each cluster, restricted to this
	// communicator. The elected leader opens the set when it is a member,
	// else the cluster's lowest comm rank (r ascends, so it is the first
	// member seen) does, so single-leader and multi-leader forms agree on
	// who fronts the cluster; co-leaders outside the communicator (or
	// outside the cluster after a Split) drop out, possibly collapsing the
	// set to one rank.
	g.nClusters = len(g.clusters)
	g.clusters, g.leaders, g.sets = slices.Clip(g.clusters), make([]int, g.nClusters), make([][]Leader, g.nClusters)
	for di, wc := range denseWorld {
		set := []Leader{{Rank: g.clusters[di][0]}}
		if wc < len(h.Leaders) {
			for i, l := range h.Leaders[wc] {
				switch cr := c.commRankOfWorld(l.Rank); {
				case cr < 0 || g.clusterOf[cr] != di:
				case i == 0:
					set[0] = Leader{cr, l.Gateway}
				case cr != set[0].Rank:
					set = append(set, Leader{cr, l.Gateway})
				}
			}
		}
		g.clusters[di], g.sets[di], g.leaders[di] = slices.Clip(g.clusters[di]), slices.Clip(set), set[0].Rank
		g.widest = max(g.widest, len(set))
	}
	if g.widest > 1 {
		g.relays = make([][][]relay, g.nClusters)
		for ci := range g.relays {
			g.relays[ci] = make([][]relay, g.nClusters)
			for cj := range g.relays[ci] {
				if cj != ci {
					g.relays[ci][cj] = slices.Clip(g.pairRelays(ci, cj))
				}
			}
		}
	}
	return g
}

// viewFor makes rank me's view of the group.
func (g *groupView) viewFor(me int) *commTopo {
	ct := &commTopo{groupView: g, myCluster: g.clusterOf[me], remote: make([]int, 0, g.nClusters-1)}
	for di := range g.clusters {
		if di != ct.myCluster {
			ct.remote = append(ct.remote, di)
		}
	}
	return ct
}

// oneClusterTopo is the hierarchy-blind view of the communicator: every
// rank in one cluster led by rank 0. A two-level compiler run on it has an
// empty leader level, which makes it the flat algorithm (forms.go's blind
// rows). It depends on nothing but the communicator's size and this rank,
// so it is built once and never invalidated.
func (c *Comm) oneClusterTopo() *commTopo {
	if c.flat != nil {
		return c.flat
	}
	// The world's group is the identity, so its first n entries list this
	// communicator's ranks.
	n := c.Size()
	g := &groupView{
		nClusters: 1,
		clusterOf: make([]int, n),
		clusters:  [][]int{c.p.World.group[:n:n]},
		leaders:   []int{0},
		sets:      [][]Leader{{{Rank: 0}}},
		widest:    1,
	}
	c.flat = g.viewFor(c.myRank)
	return c.flat
}

// clusterPos returns the member list of rank me's cluster plus the
// positions of me and of the cluster leader within it.
func (ct *commTopo) clusterPos(me int) (members []int, myPos, leaderPos int) {
	members = ct.clusters[ct.myCluster]
	return members, slices.Index(members, me), slices.Index(members, ct.leaders[ct.myCluster])
}

// collAlgo is one row outcome of the tuning table.
type collAlgo int

const (
	algoFlat collAlgo = iota
	algoHier
	algoHierSegmented // two-level with pipelined segments (Bcast)
	algoRing          // flat bandwidth-optimal ring (Allreduce, ReduceScatter)
	algoRingHier      // two-level: intra-cluster rings around the leader exchange
	algoHierMulti     // two-level with the leader phase sharded across the leader set
)

// collKind indexes the tuning table by operation.
type collKind int

const (
	kindBarrier collKind = iota
	kindBcast
	kindReduce
	kindAllreduce
	kindGather
	kindAllgather
	kindAlltoall
	kindReduceScatter
	numCollKinds
)

// defaultSegmentBytes bounds the pipelined-broadcast segment when the
// hierarchy carries no backbone estimate.
const defaultSegmentBytes = 8 << 10

// multiLeaderMinBytes is the analytic fallback's payload floor for the
// multi-leader algorithms: below it the extra intra-cluster shard
// scatter/redistribute rounds cost more than the aggregated backbone
// bandwidth saves. The autotuner measures the real crossover.
const multiLeaderMinBytes = 128 << 10

// segmentBytes returns the pipeline segment for hierarchical broadcast:
// the backbone's recommended segment, clamped so segments stay on the
// ch_mad eager path (at or below the rendez-vous switch point) and keep
// the store-and-forward pipeline busy.
func (c *Comm) segmentBytes() int {
	seg := defaultSegmentBytes
	if h := c.p.hier; h != nil && h.Inter.SegmentBytes > 0 {
		seg = h.Inter.SegmentBytes
	}
	return seg
}

// bcastSegment is the single source of the broadcast segmentation rule:
// the segment size to pipeline a total-byte payload with, or 0 when the
// payload is too small for segmentation to pay off. Deterministic in
// (total, hierarchy), so every rank picks the same shape.
func (c *Comm) bcastSegment(total int) int {
	if seg := c.segmentBytes(); total > 2*seg {
		return seg
	}
	return 0
}

// cappedBackbone reports whether the hierarchy's inter-cluster link
// models shared-trunk contention (every extra crossing queues).
func (c *Comm) cappedBackbone() bool {
	return c.p.hier != nil && c.p.hier.Inter.SharedMBs > 0
}

// chooseAlgo is the tuning-table lookup: operation kind and message size
// (total payload bytes) to algorithm, given the communicator's shape.
// Mirrors MPICH's coll_tuned decision functions. Precedence: the
// autotuner's force hook (one timed candidate), the explicit CollMode
// override, the measured crossover table installed by Autotune at
// MPI_Init, then the analytic fallback thresholds. The result is a
// preference: startColl passes it through sanitizeAlgo so what compiles is
// runnable on this communicator.
func (c *Comm) chooseAlgo(kind collKind, nBytes int) collAlgo {
	if f := c.p.forcedAlgo; f != nil {
		return *f
	}
	switch c.p.collMode {
	case CollFlat:
		return algoFlat
	case CollHier:
		if kind == kindBcast && c.bcastSegment(nBytes) > 0 {
			return algoHierSegmented
		}
		return algoHier
	case CollRing:
		return algoRing
	case CollHierRing:
		return algoRingHier
	case CollHierMulti:
		return algoHierMulti
	case CollAuto:
		// Fall past the switch: measured table, then analytic thresholds.
	}
	if tt := c.p.tuned; tt != nil {
		if a, ok := tt.lookup(kind, nBytes); ok {
			return a
		}
	}
	return c.analyticAlgo(kind, nBytes)
}

// analyticAlgo is the fallback decision table used when no autotuned
// crossover table is installed.
func (c *Comm) analyticAlgo(kind collKind, nBytes int) collAlgo {
	shape := c.shape()
	if shape < shapeMulti {
		if nBytes >= 64<<10 {
			// Large vectors: the ring's 2(n−1)/n bandwidth factor beats
			// the tree's 2·log(n) even on a uniform fast fabric (operations
			// without a ring form sanitize back to the flat tree).
			return algoRing
		}
		return algoFlat // single cluster: the flat tree already runs on the fast fabric
	}
	// capped: the backbone models shared-trunk contention, so every extra
	// crossing queues — concurrency can no longer hide flat algorithms'
	// O(n) crossings.
	capped := c.cappedBackbone()
	// multiGW: some cluster fronts several gateways, so sharding the
	// leader phase across the leader set aggregates backbone bandwidth.
	// Only worth the extra intra-cluster scatter/redistribute staging for
	// payloads large enough to be backbone-bandwidth-bound.
	multiGW := shape == shapeMultiGW
	switch kind {
	case kindBarrier, kindReduce:
		// Leader aggregation always reduces slow-link crossings; the
		// extra intra-cluster hop is cheap by construction.
		return algoHier
	case kindAllgather:
		if multiGW && nBytes*c.Size() >= multiLeaderMinBytes {
			return algoHierMulti
		}
		return algoHier
	case kindAllreduce:
		if multiGW && nBytes >= multiLeaderMinBytes {
			return algoHierMulti
		}
		if nBytes >= 64<<10 {
			// Large vectors: intra-cluster ring phases around the same
			// single leader exchange.
			return algoRingHier
		}
		return algoHier
	case kindReduceScatter:
		return algoRingHier
	case kindBcast:
		if multiGW && nBytes >= multiLeaderMinBytes {
			return algoHierMulti
		}
		if c.bcastSegment(nBytes) > 0 {
			// Large: pipeline segments through the two-level tree so the
			// slow backbone transfer overlaps the fast intra-cluster fan-out.
			return algoHierSegmented
		}
		return algoHier
	case kindGather:
		// Leader staging doubles the memory traffic for the cluster's
		// data; past a few MB the copy cost outweighs the saved
		// slow-link message setups, so fall back to the flat tree.
		if nBytes*c.Size() > 4<<20 {
			return algoFlat
		}
		return algoHier
	case kindAlltoall:
		// nBytes is the full per-rank matrix. Leader bundling always wins
		// on backbone crossings (O(clusters) vs O(n^2)) and on per-message
		// setups, but unlike Bcast/Allreduce it cannot reduce backbone
		// *bytes*: every (src, dst) block is unique, so the bundles carry
		// exactly the same payload the flat rotation does. Past the
		// setup-dominated regime both algorithms hit the same trunk
		// serialization floor and the flat rotation wins by skipping the
		// leader staging. A capped trunk stretches the setup-dominated
		// regime a little (queued crossings amplify the 32-vs-2 message
		// count); the Autotune sweep measures the real crossover on the
		// live topology either way.
		if multiGW && nBytes >= multiLeaderMinBytes {
			// Sharded bundles: the backbone bytes are irreducible, but
			// splitting each leader-pair bundle across G gateways divides
			// the serialization floor the flat rotation sits on.
			return algoHierMulti
		}
		limit := 2 << 10
		if capped {
			limit = 4 << 10
		}
		if nBytes > limit {
			return algoFlat
		}
		return algoHier
	default:
		return algoFlat
	}
}

// leaderTree is the shape of a two-level tree's leader level in relative
// indices: 0 is the root's cluster, i the i-th dense cluster after it
// (cyclically), so one shape serves every root. exchange says that an
// Allreduce's leaders are better off exchanging their partials all-pairs than
// reducing up this tree and broadcasting back down it (allreduceTree).
type leaderTree struct {
	parent   []int   // -1 at the root
	kids     [][]int // in send order
	exchange bool
}

// logGPTree builds the broadcast tree over n nodes a greedy LogGP schedule
// yields when a message keeps its sender busy for send and reaches its
// receiver deliver after the send began (Karp et al.'s optimal LogP
// broadcast, with the per-byte gap folded into both): the informed node that
// is free soonest sends next, the one informed earlier on a tie. With
// deliver = send every informed node sends in every step — the binomial tree
// — and the larger deliver/send, the more messages a node injects while its
// first is under way: a flatter tree. Two rules on top of the greedy one:
//
//   - No node sends more than ⌈log2 n⌉ messages, the binomial root's count.
//     Where one trunk paces the messages anyway, a wider root finishes the
//     tree no sooner but stays in the operation until its end, and a root
//     that leaves early is what a back-to-back loop of collectives runs on.
//   - Nodes are numbered from the top down: the k-th node informed is n−k.
//     For n ≤ 3 that is binomialOver's tree in binomialOver's send order, so
//     trees on up to three clusters do not depend on the link at all.
//
// done is the instant the last node is informed. Times are whole nanoseconds,
// so that two nodes free at the same instant tie exactly.
func logGPTree(n int, send, deliver vtime.Duration) (t *leaderTree, done vtime.Duration) {
	t = &leaderTree{parent: make([]int, n), kids: make([][]int, n)}
	t.parent[0] = -1
	fanOut := bits.Len(uint(n - 1))
	free := make([]vtime.Duration, n) // when an informed node can send next
	for k := 1; k < n; k++ {
		from := -1
		for i := 0; i < k; i++ {
			r := (n - i) % n // the informed, earliest first: 0, n−1, …, n−k+1
			if len(t.kids[r]) < fanOut && (from < 0 || free[r] < free[from]) {
				from = r
			}
		}
		t.parent[n-k], t.kids[from] = from, append(t.kids[from], n-k)
		free[n-k] = free[from] + deliver
		free[from] += send
		done = max(done, free[n-k])
	}
	return t, done
}

// leaderTree returns the leader level's shape for messages of nBytes on the
// view's backbone, building it on first use, with the Allreduce's choice
// beside it, priced on the same numbers: the tree costs its completion twice
// (up, then down), the exchange (L−1) sends and one delivery — on a capped
// trunk at least the L·(L−1) messages' bytes. No estimate keeps the tree.
// The decisions go on the record: the rank that builds a shape emits one ctrl
// instant with the LogGP inputs (Class), the message size (Bytes), the leader
// count (Seq), the predicted completion in ns (Val), the depth and widest
// fan-out that came out, and the Allreduce's shape with both its prices.
func (c *Comm) leaderTree(g *groupView, nBytes int) *leaderTree {
	if t := g.trees[nBytes]; t != nil {
		return t
	}
	l, n := g.inter, g.nClusters
	send := vtime.Microseconds(l.SendUS + float64(float64(nBytes)*l.ByteUS))
	deliver := vtime.Microseconds(max(l.DeliverUS, l.SendUS) + float64(float64(nBytes)*l.ByteUS))
	estimate := deliver > 0
	if !estimate {
		send, deliver = 1, 1
	}
	t, done := logGPTree(n, send, deliver)
	exchange := vtime.Duration(n-1)*send + deliver
	if l.SharedMBs > 0 {
		exchange = max(exchange, vtime.Microseconds(float64(n*(n-1)*nBytes)*l.ByteUS))
	}
	t.exchange = estimate && exchange < 2*done
	if g.trees == nil {
		g.trees = make(map[int]*leaderTree)
	}
	g.trees[nBytes] = t
	if tr := c.p.tracer; tr != nil {
		depth, widest := make([]int, n), len(t.kids[0])
		for r := n - 1; r > 0; r-- { // a parent is informed before its children: numbered above them
			depth[r] = depth[t.parent[r]] + 1
			widest = max(widest, len(t.kids[r]))
		}
		shape := "tree"
		if t.exchange {
			shape = "exchange"
		}
		tr.Instant(c.p.traceTrack, trace.KCtrl, "tree.leader", trace.Args{
			Bytes: int64(nBytes), Seq: uint32(n), Val: int64(done),
			Class: fmt.Sprintf("o=%.4gus,D=%.4gus,G=%.4gus/B,depth=%d,fanout=%d,allreduce=%s,exchange=%.4gus,tree=%.4gus",
				l.SendUS, l.DeliverUS, l.ByteUS, slices.Max(depth), widest, shape, exchange.Micros(), (2 * done).Micros()),
		})
	}
	return t
}

// twoLevelTree builds the rank's position in the two-level spanning tree
// rooted at root for messages of nBytes: the leaderTree over cluster leaders
// (with the root acting as its own cluster's leader) feeding binomial trees
// inside each cluster. A leader's children list the backbone
// (inter-cluster) children first so slow-link transfers start as early as
// possible. parent is -1 at the root.
func (c *Comm) twoLevelTree(ct *commTopo, root, nBytes int) (parent int, children []int) {
	// Operation leaders: the root stands in for its own cluster's leader.
	me := c.myRank
	rootCluster, myCluster := ct.clusterOf[root], ct.clusterOf[me]
	lead := ct.leaders[myCluster]
	if myCluster == rootCluster {
		lead = root
	}
	parent = -1
	if me == lead && ct.nClusters > 1 {
		t, n := c.leaderTree(ct.groupView, nBytes), ct.nClusters
		opLeader := func(rel int) int {
			if rel == 0 {
				return root
			}
			return ct.leaders[(rel+rootCluster)%n]
		}
		rel := (myCluster - rootCluster + n) % n
		if rel > 0 {
			parent = opLeader(t.parent[rel])
		}
		for _, k := range t.kids[rel] {
			children = append(children, opLeader(k))
		}
	}

	// Intra-cluster binomial tree rooted at the cluster's operation
	// leader. A leader is its intra-tree's root (p = -1), so its backbone
	// parent from the leader level is preserved.
	members := ct.clusters[myCluster]
	p, kids := binomialOver(members, slices.Index(members, lead), slices.Index(members, me))
	if p >= 0 {
		parent = p
	}
	return parent, append(children, kids...)
}
