package route

import (
	"sort"
	"strings"
)

// This file is the hierarchical half of the planner: the bloc partition
// (ranks grouped by identical network signature) and the quotient-graph
// Dijkstra that answers congestion-free queries with one tree per source
// *bloc* instead of one per source rank.
//
// Why the quotient is exact, not an approximation:
//
//   - Distances out of a bloc are the same for every member. Swapping two
//     co-members is a graph automorphism (identical signatures mean
//     identical adjacency and edge costs), and a path that detours
//     through a co-member of its source always costs strictly more than
//     leaving the source directly (every edge the co-member can use, the
//     source can use at the same cost, and the detour hop itself is
//     strictly positive). So co-members are never interior hops and never
//     predecessors, and the rank-level problem collapses onto blocs.
//   - Cost sums are bit-identical to the dense planner's, not just
//     mathematically equal: both fold the same float64 edge costs
//     left-to-right along the same bloc sequence.
//   - The dense planner's deterministic tie-breaks survive the quotient.
//     In the dense Dijkstra the final predecessor of v is the
//     lowest-ranked u with dist(u)+cost(u,v) == dist(v) (every such u
//     pops strictly before v, and the overwrite rule keeps the lowest),
//     and all members of a qualifying bloc qualify together — so the
//     dense choice is exactly "the representative (lowest member) of the
//     qualifying bloc with the lowest representative", which is what
//     prevNR tracks. The one per-source asymmetry is the source itself:
//     its direct edges belong to it alone (co-members do not inherit
//     them), so the tree records *whether* the source-bloc direct edge
//     attains the distance (rootQ) and the per-source resolution in
//     hierStep compares the querying source's rank against the best
//     non-root bloc's representative.

// buildBlocs partitions the ranks into blocs — maximal groups with
// identical sorted network signatures — and indexes bloc adjacency per
// network. Bloc ids ascend with their lowest member, so id order is
// representative-rank order.
func (p *Plan) buildBlocs(g Graph) {
	p.blocOf = make([]int, p.n)
	index := make(map[string]int, p.n)
	for r := 0; r < p.n; r++ {
		sig := make([]string, 0, len(p.attached[r]))
		for nm := range p.attached[r] {
			sig = append(sig, nm)
		}
		sort.Strings(sig)
		key := strings.Join(sig, "\x1f")
		id, ok := index[key]
		if !ok {
			id = len(p.blocs)
			index[key] = id
			p.blocs = append(p.blocs, bloc{sig: sig})
		}
		p.blocOf[r] = id
		p.blocs[id].members = append(p.blocs[id].members, r)
	}
	p.netBlocsByID = make([][]int, len(p.netNames))
	p.blocSigIDs = make([][]int, len(p.blocs))
	for id := range p.blocs {
		ids := make([]int, len(p.blocs[id].sig))
		for i, nm := range p.blocs[id].sig {
			ni := p.netIdx[nm]
			ids[i] = ni
			p.netBlocsByID[ni] = append(p.netBlocsByID[ni], id)
		}
		p.blocSigIDs[id] = ids
	}
}

// BlocCount returns the number of blocs (distinct network signatures) in
// the plan — the size of the quotient graph the hierarchical resolver
// routes over.
func (p *Plan) BlocCount() int { return len(p.blocs) }

// BlocOf returns the bloc id of a rank. Two ranks share a bloc exactly
// when they are attached to the same set of networks; on a
// congestion-free plan, such ranks have identical costs and hop counts
// to (and from) every rank outside the bloc, which is what lets
// bloc-aggregated consumers (leader election, the autotuner's
// representative sampling) query one member per bloc.
func (p *Plan) BlocOf(rank int) int { return p.blocOf[rank] }

// BlocMembers returns the ascending member ranks of a bloc. The returned
// slice is the plan's own and must not be modified.
//
//madlint:ignore deadexport bench/ uses it
func (p *Plan) BlocMembers(b int) []int { return p.blocs[b].members }

// rep returns the bloc's representative: its lowest member, the rank the
// deterministic tie-breaks elect whenever the bloc relays.
func (p *Plan) rep(b int) int { return p.blocs[b].members[0] }

// quotientTree is one source bloc's shortest-cost tree over the quotient
// graph, shared by every member of that bloc.
type quotientTree struct {
	dist []float64
	// prevNR is the qualifying predecessor bloc with the lowest
	// representative, excluding the source bloc: -1 when only the source's
	// own direct edge attains the distance, unreached when the bloc is
	// unreachable (and, for the source bloc itself, the root marker).
	prevNR []int
	// rootQ records whether the direct edge from the source bloc attains
	// dist — the per-source half of the tie-break, resolved in hierStep.
	rootQ []bool
	// srcFree is set when no bloc's predecessor resolution depends on the
	// querying source (no bloc has both a qualifying root edge and a
	// qualifying non-root bloc — the overwhelmingly common case). Then
	// hops holds each bloc's precomputed path length and hierHops is O(1);
	// otherwise hop counts are resolved by walking the chain per source.
	srcFree bool
	hops    []int
}

// heapItem is a lazy-deletion priority queue entry: pop order is
// (dist, tie) where tie is the node's rank (rank trees) or its bloc's
// representative rank (quotient trees).
type heapItem struct {
	dist float64
	tie  int
	node int
}

// distHeap is a hand-rolled binary min-heap over heapItem. container/heap
// would box every push through interface{} — one allocation per
// relaxation — which is exactly the per-event garbage this refactor is
// removing from the planner's hot path.
type distHeap struct{ it []heapItem }

func (h *heapItem) less(o *heapItem) bool {
	if h.dist != o.dist {
		return h.dist < o.dist
	}
	return h.tie < o.tie
}

func (h *distHeap) empty() bool { return len(h.it) == 0 }

func (h *distHeap) push(x heapItem) {
	h.it = append(h.it, x)
	i := len(h.it) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.it[i].less(&h.it[parent]) {
			break
		}
		h.it[i], h.it[parent] = h.it[parent], h.it[i]
		i = parent
	}
}

func (h *distHeap) pop() heapItem {
	top := h.it[0]
	last := len(h.it) - 1
	h.it[0] = h.it[last]
	h.it = h.it[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.it) {
			break
		}
		c := l
		if r < len(h.it) && h.it[r].less(&h.it[l]) {
			c = r
		}
		if !h.it[c].less(&h.it[i]) {
			break
		}
		h.it[i], h.it[c] = h.it[c], h.it[i]
		i = c
	}
	return top
}

// quotientFor returns the (lazily built, cached) quotient tree rooted at
// bloc b0. O(Q log Q) in the quotient size Q, independent of how many
// ranks each bloc holds: per-net live lists are compacted as blocs
// settle, so a net shared by many blocs (the backbone) is not rescanned
// past its settled members.
func (p *Plan) quotientFor(b0 int) *quotientTree {
	if t, ok := p.qts[b0]; ok {
		return t
	}
	nb := len(p.blocs)
	t := &quotientTree{
		dist:   make([]float64, nb),
		prevNR: make([]int, nb),
		rootQ:  make([]bool, nb),
	}
	done := make([]bool, nb)
	for i := range t.prevNR {
		t.prevNR[i] = unreached
		t.dist[i] = -1
	}
	t.dist[b0], t.prevNR[b0] = 0, -1
	live := make([][]int, len(p.netNames)) // copied from netBlocsByID on first touch
	order := make([]int, 0, nb)            // finalization order, for the hops post-pass
	var h distHeap
	h.push(heapItem{dist: 0, tie: p.rep(b0), node: b0})
	for !h.empty() {
		it := h.pop()
		cur := it.node
		if done[cur] || it.dist > t.dist[cur] {
			continue
		}
		done[cur] = true
		order = append(order, cur)
		for _, ni := range p.blocSigIDs[cur] {
			c := p.netCostByID[ni]
			lb := live[ni]
			if lb == nil {
				lb = append([]int(nil), p.netBlocsByID[ni]...)
			}
			w := 0
			for _, b := range lb {
				if done[b] {
					continue // settled (including cur itself): drop from the live list
				}
				lb[w] = b
				w++
				nd := t.dist[cur] + c
				switch {
				case t.prevNR[b] == unreached || nd < t.dist[b]:
					t.dist[b] = nd
					if cur == b0 {
						t.prevNR[b], t.rootQ[b] = -1, true
					} else {
						t.prevNR[b], t.rootQ[b] = cur, false
					}
					h.push(heapItem{dist: nd, tie: p.rep(b), node: b})
				case nd == t.dist[b]:
					if cur == b0 {
						t.rootQ[b] = true
					} else if t.prevNR[b] == -1 || p.rep(cur) < p.rep(t.prevNR[b]) {
						t.prevNR[b] = cur
					}
				}
			}
			live[ni] = lb[:w]
		}
	}
	t.srcFree = true
	for _, b := range order {
		if b != b0 && t.rootQ[b] && t.prevNR[b] != -1 {
			t.srcFree = false
			break
		}
	}
	if t.srcFree {
		t.hops = make([]int, nb)
		for _, b := range order {
			if b == b0 {
				continue
			}
			if t.prevNR[b] == -1 {
				t.hops[b] = 1 // direct from the source
			} else {
				t.hops[b] = t.hops[t.prevNR[b]] + 1 // predecessor finalized earlier
			}
		}
	}
	p.qts[b0] = t
	return t
}

// hierStep resolves one step of the predecessor chain for the query
// source src: the dense tie-break picks the lowest qualifying rank, which
// is src itself when the source-bloc direct edge qualifies and src
// undercuts the best non-root bloc's representative.
func (p *Plan) hierStep(t *quotientTree, src, b int) (prevBloc int, isRoot bool) {
	if t.rootQ[b] && (t.prevNR[b] == -1 || src < p.rep(t.prevNR[b])) {
		return -1, true
	}
	return t.prevNR[b], false
}

// hierPath reconstructs the rank-level src->dst path from the bloc chain:
// the representative of each interior bloc relays, and each hop rides the
// cheapest (then lexicographically first) network the two endpoints
// share — exactly the dense planner's prev/prevNet choices.
func (p *Plan) hierPath(src, dst int) ([]Hop, bool) {
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

// hierHops counts the src->dst path length without materializing it —
// leader election sums hop counts over whole blocs, so this is O(path)
// with no allocation.
func (p *Plan) hierHops(src, dst int) (int, bool) {
	bs, bd := p.blocOf[src], p.blocOf[dst]
	if bs == bd {
		if _, _, ok := p.cheapestEdge(src, dst, nil); !ok {
			return 0, false
		}
		return 1, true
	}
	t := p.quotientFor(bs)
	if t.prevNR[bd] == unreached {
		return 0, false
	}
	if t.srcFree {
		return t.hops[bd], true
	}
	n := 0
	for b := bd; ; {
		pb, isRoot := p.hierStep(t, src, b)
		n++
		if isRoot {
			break
		}
		b = pb
	}
	return n, true
}
