package route

// rankTree is one source rank's shortest-cost tree over the full rank
// graph: the engine of the banned-edge searches behind edge-disjoint
// alternates, where a banned edge breaks the bloc symmetry the quotient
// resolver (bloc.go) relies on.
type rankTree struct {
	dist    []float64
	prev    []int
	prevNet []string
}

// dijkstraFrom runs one heap-based Dijkstra from src over the real
// adjacency (per-network member lists), skipping banned (pair, network)
// edges. Every hop leaving a non-source rank additionally pays that
// rank's congestion term — the relay feedback.
//
// The result is bit-identical to the dense linear-scan reference
// (shortestFrom in dense_test.go): the heap pops in the same (dist, rank)
// order the dense selection scan settles nodes in, each settled node
// relaxes the same neighbors under the same overwrite rule, and relaxing
// per shared network in sorted-name order reproduces the
// cheapest-then-first-name edge choice — a cheaper later name overwrites
// (nd < dist), an equal-cost later name does not (cur == prev blocks the
// tie clause).
func (p *Plan) dijkstraFrom(src int, banned map[edgeKey]bool) *rankTree {
	t := &rankTree{
		dist:    make([]float64, p.n),
		prev:    make([]int, p.n),
		prevNet: make([]string, p.n),
	}
	done := make([]bool, p.n)
	for i := range t.prev {
		t.prev[i] = unreached
		t.dist[i] = -1
	}
	t.dist[src], t.prev[src] = 0, -1
	var h distHeap
	h.push(heapItem{dist: 0, tie: src, node: src})
	for !h.empty() {
		it := h.pop()
		cur := it.node
		if done[cur] || it.dist > t.dist[cur] {
			continue
		}
		done[cur] = true
		relay := 0.0
		if cur != src {
			relay = p.CongestionOf(cur) // cur would store-and-forward this hop
		}
		for _, ni := range p.blocSigIDs[p.blocOf[cur]] {
			c := p.netCostByID[ni]
			nm := p.netNames[ni]
			for _, v := range p.netMembersByID[ni] {
				if v == cur || done[v] {
					continue
				}
				if banned != nil && banned[keyOf(cur, v, nm)] {
					continue
				}
				nd := t.dist[cur] + c + relay
				if t.prev[v] == unreached || nd < t.dist[v] ||
					(nd == t.dist[v] && cur < t.prev[v]) {
					if t.prev[v] == unreached || nd < t.dist[v] {
						h.push(heapItem{dist: nd, tie: v, node: v})
					}
					t.dist[v], t.prev[v], t.prevNet[v] = nd, cur, nm
				}
			}
		}
	}
	return t
}
