package route

// densePlan is the original eager all-pairs planner, retained solely as
// the reference implementation for the eager==lazy equivalence property
// tests: it materializes a full Dijkstra tree from every source with the
// O(N^2) linear selection scan the package shipped with. Production
// queries never touch it — Plan resolves over the bloc quotient (bloc.go).
type densePlan struct {
	p       *Plan
	dist    [][]float64
	prev    [][]int    // prev[src][v]: predecessor of v on the path from src (-1 at src, unreached)
	prevNet [][]string // prevNet[src][v]: network carrying prev[src][v] -> v
}

// computeDense eagerly plans all-pairs shortest-cost paths.
func computeDense(g Graph, opts Options) *densePlan {
	p := ComputeOpts(g, opts)
	d := &densePlan{
		p:       p,
		dist:    make([][]float64, g.N),
		prev:    make([][]int, g.N),
		prevNet: make([][]string, g.N),
	}
	for src := 0; src < g.N; src++ {
		d.dist[src], d.prev[src], d.prevNet[src] = p.shortestFrom(src, nil)
	}
	return d
}

func (d *densePlan) routable(src, dst int) bool {
	return src == dst || d.prev[src][dst] != unreached
}

func (d *densePlan) cost(src, dst int) (float64, bool) {
	if !d.routable(src, dst) {
		return 0, false
	}
	return d.dist[src][dst], true
}

func (d *densePlan) path(src, dst int) ([]Hop, bool) {
	if src == dst {
		return nil, true
	}
	if !d.routable(src, dst) {
		return nil, false
	}
	return pathFrom(d.prev[src], d.prevNet[src], src, dst), true
}

// paths is the dense equivalent of Plan.Paths: primary plus banned-edge
// alternates, computed with the same linear-scan reference.
func (d *densePlan) paths(src, dst int) ([][]Hop, bool) {
	if src == dst {
		return nil, true
	}
	primary, ok := d.path(src, dst)
	if !ok {
		return nil, false
	}
	paths := [][]Hop{primary}
	banned := make(map[edgeKey]bool)
	for len(paths) < d.p.maxPaths {
		at := src
		for _, h := range paths[len(paths)-1] {
			banned[keyOf(at, h.Rank, h.Net)] = true
			at = h.Rank
		}
		_, prev, prevNet := d.p.shortestFrom(src, banned)
		if prev[dst] == unreached {
			break
		}
		paths = append(paths, pathFrom(prev, prevNet, src, dst))
	}
	return paths, true
}

// shortestFrom runs one deterministic Dijkstra from src with the dense
// linear selection scan, skipping banned (pair, network) edges. Every hop
// leaving a non-source rank additionally pays that rank's congestion
// term. Selection ties keep the lower rank; relaxation ties keep the
// lower predecessor; the edge between two settled ranks is the cheapest
// shared network, first name winning cost ties — the deterministic
// contract every lazy resolver must reproduce bit-for-bit.
func (p *Plan) shortestFrom(src int, banned map[edgeKey]bool) (dist []float64, prev []int, prevNet []string) {
	dist = make([]float64, p.n)
	prev = make([]int, p.n)
	prevNet = make([]string, p.n)
	done := make([]bool, p.n)
	for i := range prev {
		prev[i] = unreached
		dist[i] = -1
	}
	dist[src], prev[src] = 0, -1
	for {
		cur := -1
		for v := 0; v < p.n; v++ {
			if done[v] || prev[v] == unreached {
				continue
			}
			if cur == -1 || dist[v] < dist[cur] {
				cur = v // ties keep the lower rank: v ascends
			}
		}
		if cur == -1 {
			break
		}
		done[cur] = true
		relay := 0.0
		if cur != src && p.congestion != nil {
			relay = p.congestion[cur] // cur would store-and-forward this hop
		}
		for v := 0; v < p.n; v++ {
			if v == cur || done[v] {
				continue
			}
			nm, c, ok := p.cheapestEdge(cur, v, banned)
			if !ok {
				continue
			}
			nd := dist[cur] + c + relay
			if prev[v] == unreached || nd < dist[v] ||
				(nd == dist[v] && cur < prev[v]) {
				dist[v], prev[v], prevNet[v] = nd, cur, nm
			}
		}
	}
	return dist, prev, prevNet
}
