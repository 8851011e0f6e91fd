package route

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// compute plans the classic single-path, congestion-free state at a
// reference payload size (DefaultRefBytes when refBytes <= 0).
func compute(g Graph, refBytes int) *Plan {
	return ComputeOpts(g, Options{RefBytes: refBytes})
}

// randomGraph builds a random heterogeneous proc/network graph with n
// procs and up to four networks of mixed protocols, some trunk-capped.
func randomGraph(rng *rand.Rand, n int) Graph {
	presets := []func() netsim.Params{
		netsim.FastEthernetTCP, netsim.SCISISCI, netsim.MyrinetBIP,
	}
	nNets := rng.Intn(4) + 1
	g := Graph{N: n, NetsOf: make([][]string, n), Nets: make(map[string]netsim.Params)}
	names := []string{"net0", "net1", "net2", "net3"}[:nNets]
	for i, name := range names {
		p := presets[(rng.Intn(len(presets)))]()
		if rng.Intn(3) == 0 {
			p.NetworkBandwidth = p.Bandwidth // capped trunk
		}
		g.Nets[name] = p
		// Attach a random non-empty subset of procs.
		attachedAny := false
		for r := 0; r < n; r++ {
			if rng.Intn(2) == 0 {
				g.NetsOf[r] = append(g.NetsOf[r], name)
				attachedAny = true
			}
		}
		if !attachedAny {
			g.NetsOf[rng.Intn(n)] = append(g.NetsOf[rng.Intn(n)], name)
		}
		_ = i
	}
	return g
}

// bruteCost is an exhaustive shortest-cost search (DFS over simple paths)
// on the same edge model the planner uses.
func bruteCost(g Graph, refBytes, src, dst int) (float64, bool) {
	attached := func(r int, net string) bool {
		for _, nm := range g.NetsOf[r] {
			if nm == net {
				return true
			}
		}
		return false
	}
	edge := func(a, b int) (float64, bool) {
		best, found := 0.0, false
		for name, params := range g.Nets {
			if !attached(a, name) || !attached(b, name) {
				continue
			}
			if c := HopCost(params, refBytes); !found || c < best {
				best, found = c, true
			}
		}
		return best, found
	}
	bestTotal, found := 0.0, false
	visited := make([]bool, g.N)
	var dfs func(cur int, cost float64)
	dfs = func(cur int, cost float64) {
		if cur == dst {
			if !found || cost < bestTotal {
				bestTotal, found = cost, true
			}
			return
		}
		visited[cur] = true
		for next := 0; next < g.N; next++ {
			if visited[next] {
				continue
			}
			if c, ok := edge(cur, next); ok {
				dfs(next, cost+c)
			}
		}
		visited[cur] = false
	}
	dfs(src, 0)
	return bestTotal, found
}

// TestPlanMatchesBruteForce: on random <=8-proc heterogeneous graphs, the
// planner's pair costs equal the exhaustive shortest-cost search, and
// routability agrees. Also checks path self-consistency: summing HopCost
// over the returned hops reproduces the reported cost.
func TestPlanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		n := rng.Intn(7) + 2
		g := randomGraph(rng, n)
		plan := compute(g, DefaultRefBytes)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				want, reachable := bruteCost(g, DefaultRefBytes, s, d)
				got, ok := plan.Cost(s, d)
				if ok != reachable {
					t.Fatalf("iter %d: Cost(%d,%d) ok = %v, brute force says reachable = %v",
						iter, s, d, ok, reachable)
				}
				if !reachable {
					continue
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("iter %d: cost(%d,%d) = %g, brute force %g", iter, s, d, got, want)
				}
				hops, _ := plan.Path(s, d)
				if viaPath := plan.Info(hops).Cost; math.Abs(viaPath-got) > 1e-12 {
					t.Fatalf("iter %d: Info(Path(%d,%d)).Cost = %g, Cost = %g", iter, s, d, viaPath, got)
				}
				if hops[len(hops)-1].Rank != d {
					t.Fatalf("iter %d: path(%d,%d) ends at %d", iter, s, d, hops[len(hops)-1].Rank)
				}
				if got := plan.Hops(s, d); got != len(hops) {
					t.Fatalf("iter %d: Hops(%d,%d) = %d, path has %d", iter, s, d, got, len(hops))
				}
			}
		}
	}
}

// TestPlanDeterministic: planning the same graph twice yields identical
// next hops, paths and costs.
func TestPlanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		g := randomGraph(rng, 6)
		a, b := compute(g, DefaultRefBytes), compute(g, DefaultRefBytes)
		for s := 0; s < g.N; s++ {
			for d := 0; d < g.N; d++ {
				pa, oka := a.Path(s, d)
				pb, okb := b.Path(s, d)
				if oka != okb || !reflect.DeepEqual(pa, pb) {
					t.Fatalf("iter %d: Path(%d,%d) differs between identical plans", iter, s, d)
				}
				ca, _ := a.Cost(s, d)
				cb, _ := b.Cost(s, d)
				if ca != cb {
					t.Fatalf("iter %d: Cost(%d,%d) differs between identical plans", iter, s, d)
				}
			}
		}
	}
}

// randomClusterGraph builds a clusters-of-clusters topology like the ones
// the session wires at scale: each cluster on its own fabric preset, a
// random subset of gateway ranks per cluster on one or two (sometimes
// trunk-capped) backbones. Heavy bloc structure — exactly what the
// hierarchical resolver exploits — while gateway choices keep plenty of
// asymmetry.
func randomClusterGraph(rng *rand.Rand, maxRanks int) Graph {
	presets := []func() netsim.Params{
		netsim.FastEthernetTCP, netsim.SCISISCI, netsim.MyrinetBIP,
	}
	g := Graph{Nets: make(map[string]netsim.Params)}
	nBackbones := rng.Intn(2) + 1
	backbones := make([]string, nBackbones)
	for b := range backbones {
		name := "bb" + string(rune('0'+b))
		p := netsim.FastEthernetTCP()
		if rng.Intn(2) == 0 {
			p.NetworkBandwidth = p.Bandwidth // capped trunk
		}
		g.Nets[name] = p
		backbones[b] = name
	}
	nClusters := rng.Intn(6) + 1
	for c := 0; c < nClusters && g.N < maxRanks; c++ {
		fabric := "cl" + string(rune('0'+c))
		g.Nets[fabric] = presets[rng.Intn(len(presets))]()
		size := rng.Intn(16) + 1
		if g.N+size > maxRanks {
			size = maxRanks - g.N
		}
		for m := 0; m < size; m++ {
			nets := []string{fabric}
			for _, bb := range backbones {
				if rng.Intn(4) == 0 { // this member is a gateway
					nets = append(nets, bb)
				}
			}
			g.NetsOf = append(g.NetsOf, nets)
			g.N++
		}
	}
	return g
}

// gatewayTerms is a re-plan's congestion vector where every gateway (a
// rank on more than one network) of a cluster (its first network) holds
// the same term, drawn per cluster from {0, 1, 2} ms.
func gatewayTerms(rng *rand.Rand, g Graph) []float64 {
	cong := make([]float64, g.N)
	perCluster := make(map[string]float64)
	for r, nets := range g.NetsOf {
		if len(nets) < 2 {
			continue
		}
		term, ok := perCluster[nets[0]]
		if !ok {
			term = float64(rng.Intn(3)) * 1e-3
			perCluster[nets[0]] = term
		}
		cong[r] = term
	}
	return cong
}

// TestHierarchicalMatchesDense is the eager==lazy equivalence property
// test: on random multi-cluster topologies (and on the unstructured
// random graphs, where almost every rank is its own bloc), the lazy
// hierarchical plan answers Cost/Path/Hops/Paths
// byte-identically to the retained dense all-pairs reference — including
// exact float equality of costs and the deterministic tie-breaks — with
// and without congestion feedback (Replan's all-zero vector, one term per
// cluster's gateways, random per-rank terms), across MaxPaths settings.
func TestHierarchicalMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 60; iter++ {
		var g Graph
		if iter%3 == 0 {
			g = randomGraph(rng, rng.Intn(15)+2)
		} else {
			g = randomClusterGraph(rng, 64)
		}
		opts := Options{MaxPaths: rng.Intn(3) + 1}
		switch iter % 4 {
		case 1:
			opts.Congestion = make([]float64, g.N)
		case 2:
			opts.Congestion = gatewayTerms(rand.New(rand.NewSource(int64(iter))), g)
		case 3:
			opts.Congestion = make([]float64, g.N)
			for r := range opts.Congestion {
				if rng.Intn(3) == 0 {
					opts.Congestion[r] = float64(rng.Intn(10)) * 1e-3
				}
			}
		}
		lazy := ComputeOpts(g, opts)
		dense := computeDense(g, opts)
		for s := 0; s < g.N; s++ {
			for d := 0; d < g.N; d++ {
				lc, lok := lazy.Cost(s, d)
				dc, dok := dense.cost(s, d)
				if lok != dok || lc != dc {
					t.Fatalf("iter %d: Cost(%d,%d): lazy %v/%v, dense %v/%v",
						iter, s, d, lc, lok, dc, dok)
				}
				lp, lok := lazy.Path(s, d)
				dp, dok := dense.path(s, d)
				if lok != dok || !reflect.DeepEqual(lp, dp) {
					t.Fatalf("iter %d: Path(%d,%d): lazy %v, dense %v", iter, s, d, lp, dp)
				}
				if got, want := lazy.Hops(s, d), -1; dok {
					want = len(dp)
					if s == d {
						want = 0
					}
					if got != want {
						t.Fatalf("iter %d: Hops(%d,%d) = %d, dense path has %d", iter, s, d, got, want)
					}
				} else if got != want {
					t.Fatalf("iter %d: Hops(%d,%d) = %d for unroutable pair", iter, s, d, got)
				}
				lps, lok := lazy.Paths(s, d)
				dps, dok := dense.paths(s, d)
				if lok != dok || !reflect.DeepEqual(lps, dps) {
					t.Fatalf("iter %d: Paths(%d,%d): lazy %v, dense %v", iter, s, d, lps, dps)
				}
			}
		}
	}
}

// TestBlocInvariants: co-members of a bloc share their signature and
// congestion term, and every member answers external queries identically
// to the bloc representative — congestion-free, with one term per
// cluster's gateways, and with per-rank terms splitting blocs — the
// contract bloc-aggregated leader election and the link-class memo rely on.
func TestBlocInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 20; iter++ {
		g := randomClusterGraph(rng, 48)
		terms := rand.New(rand.NewSource(int64(iter)))
		perRank := make([]float64, g.N)
		for r := range perRank {
			perRank[r] = float64(terms.Intn(2)) * 1e-3
		}
		for _, plan := range []*Plan{
			compute(g, DefaultRefBytes),
			ComputeOpts(g, Options{Congestion: gatewayTerms(terms, g)}),
			ComputeOpts(g, Options{Congestion: perRank}),
		} {
			for b := 0; b < plan.BlocCount(); b++ {
				members := plan.BlocMembers(b)
				repr := members[0]
				for _, m := range members {
					if plan.BlocOf(m) != b || plan.CongestionOf(m) != plan.CongestionOf(repr) {
						t.Fatalf("iter %d: rank %d in bloc %d, term %g; want bloc %d, term %g",
							iter, m, plan.BlocOf(m), plan.CongestionOf(m), b, plan.CongestionOf(repr))
					}
					for d := 0; d < g.N; d++ {
						if plan.BlocOf(d) == b {
							continue
						}
						mc, mok := plan.Cost(m, d)
						rc, rok := plan.Cost(repr, d)
						if mok != rok || mc != rc {
							t.Fatalf("iter %d: Cost(%d,%d)=%v/%v but Cost(%d,%d)=%v/%v within bloc %d",
								iter, m, d, mc, mok, repr, d, rc, rok, b)
						}
						if plan.Hops(m, d) != plan.Hops(repr, d) {
							t.Fatalf("iter %d: Hops(%d,%d)=%d but Hops(%d,%d)=%d within bloc %d",
								iter, m, d, plan.Hops(m, d), repr, d, plan.Hops(repr, d), b)
						}
					}
				}
			}
		}
	}
}

// triangleGraph mirrors the bridged-triangle benchmark topology: three
// islands (SCI, SCI, Myrinet) chained by TCP bridges on all three sides.
// Ranks: a0..a2 = 0..2, b0..b2 = 3..5, c0..c2 = 6..8; bridge endpoints
// a2-b1 (gwAB), b2-c1 (gwBC), a1-c0 (gwCA).
func triangleGraph() Graph {
	return Graph{
		N: 9,
		NetsOf: [][]string{
			{"sciA"}, {"sciA", "gwCA"}, {"sciA", "gwAB"},
			{"sciB"}, {"sciB", "gwAB"}, {"sciB", "gwBC"},
			{"myriC", "gwCA"}, {"myriC", "gwBC"}, {"myriC"},
		},
		Nets: map[string]netsim.Params{
			"sciA":  netsim.SCISISCI(),
			"sciB":  netsim.SCISISCI(),
			"myriC": netsim.MyrinetBIP(),
			"gwAB":  netsim.FastEthernetTCP(),
			"gwBC":  netsim.FastEthernetTCP(),
			"gwCA":  netsim.FastEthernetTCP(),
		},
	}
}

// edgeSet collects the (pair, net) edges of a path starting at src.
func edgeSet(src int, hops []Hop) map[edgeKey]bool {
	set := make(map[edgeKey]bool)
	at := src
	for _, h := range hops {
		set[keyOf(at, h.Rank, h.Net)] = true
		at = h.Rank
	}
	return set
}

// TestDisjointPathsTriangle: on the bridged triangle, the multi-path plan
// exposes two edge-disjoint rails between the far corners — the direct
// third-side bridge as the primary and the two-bridge detour through the
// middle island as the second rail.
func TestDisjointPathsTriangle(t *testing.T) {
	plan := ComputeOpts(triangleGraph(), Options{MaxPaths: 2})
	paths, ok := plan.Paths(0, 8)
	if !ok || len(paths) != 2 {
		t.Fatalf("Paths(0,8): ok=%v, %d paths, want 2", ok, len(paths))
	}
	// Primary: a0 -> a1 -> c0 -> c2 over the single gwCA bridge.
	if len(paths[0]) != 3 {
		t.Fatalf("primary path %v, want 3 hops via gwCA", paths[0])
	}
	// Alternate: a0 -> a2 -> b1 -> b2 -> c1 -> c2 over both other bridges.
	if len(paths[1]) != 5 {
		t.Fatalf("alternate path %v, want 5 hops via gwAB+gwBC", paths[1])
	}
	e0, e1 := edgeSet(0, paths[0]), edgeSet(0, paths[1])
	for k := range e0 {
		if e1[k] {
			t.Fatalf("paths share edge %+v", k)
		}
	}
	// Path 0 must be the plain shortest path.
	single, _ := plan.Path(0, 8)
	if !reflect.DeepEqual(single, paths[0]) {
		t.Fatalf("paths[0] = %v, Path = %v", paths[0], single)
	}
	// Both rails end at the destination.
	for i, hops := range paths {
		if hops[len(hops)-1].Rank != 8 {
			t.Fatalf("rail %d ends at %d", i, hops[len(hops)-1].Rank)
		}
	}
}

// TestCongestionRoutesAround: charging the primary rail's gateway with a
// congestion term steers the shortest path onto the other rail, and an
// uncongested re-plan restores it — the adaptive re-routing feedback loop.
func TestCongestionRoutesAround(t *testing.T) {
	g := triangleGraph()
	base := ComputeOpts(g, Options{MaxPaths: 2})
	hops, _ := base.Path(0, 8)
	usesGW := func(hops []Hop, rank int) bool {
		for _, h := range hops[:len(hops)-1] {
			if h.Rank == rank {
				return true
			}
		}
		return false
	}
	if !usesGW(hops, 1) {
		t.Fatalf("baseline path %v should relay through rank 1 (gwCA)", hops)
	}
	// Congest both gwCA endpoints heavily (10 ms each).
	cong := make([]float64, g.N)
	cong[1], cong[6] = 10e-3, 10e-3
	adapted := ComputeOpts(g, Options{MaxPaths: 2, Congestion: cong})
	ahops, _ := adapted.Path(0, 8)
	if usesGW(ahops, 1) || usesGW(ahops, 6) {
		t.Fatalf("adapted path %v still relays through the hot gwCA gateways", ahops)
	}
	if c, _ := adapted.Cost(0, 8); c <= 0 {
		t.Fatalf("adapted cost = %g", c)
	}
	if back := ComputeOpts(g, Options{MaxPaths: 2}); !reflect.DeepEqual(mustPath(t, back, 0, 8), hops) {
		t.Fatal("uncongested re-plan did not restore the primary rail")
	}
}

// TestCongestedPlanKeepsTheQuotient: on the 1024-rank scale graph, one
// congested gateway (already alone in its bloc) leaves the bloc count
// where the congestion-free plan has it, and planning plus the session
// workload allocates at most twice what it does without congestion.
func TestCongestedPlanKeepsTheQuotient(t *testing.T) {
	g := scaleGraph(64, 16)
	hot := oneHotGateway(g, 16)
	if got, want := ComputeOpts(g, hot).BlocCount(), ComputeOpts(g, Options{}).BlocCount(); got != want {
		t.Fatalf("congested plan has %d blocs, congestion-free %d", got, want)
	}
	allocs := func(opts Options) float64 {
		return testing.AllocsPerRun(3, func() { planWorkload(t, ComputeOpts(g, opts), 64, 16) })
	}
	if got, free := allocs(hot), allocs(Options{}); got > 2*free {
		t.Fatalf("congested plan allocates %.0f per plan, more than twice the congestion-free %.0f", got, free)
	}
}

func mustPath(t *testing.T, p *Plan, s, d int) []Hop {
	t.Helper()
	hops, ok := p.Path(s, d)
	if !ok {
		t.Fatalf("no path %d->%d", s, d)
	}
	return hops
}

// TestPathsDisjointProperty: on random graphs, every pair's path set is
// pairwise edge-disjoint, path 0 equals the single-path answer, every
// path terminates at the destination, and the computation is
// deterministic.
func TestPathsDisjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 40; iter++ {
		n := rng.Intn(7) + 2
		g := randomGraph(rng, n)
		k := rng.Intn(3) + 1
		plan := ComputeOpts(g, Options{MaxPaths: k})
		again := ComputeOpts(g, Options{MaxPaths: k})
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				paths, ok := plan.Paths(s, d)
				paths2, ok2 := again.Paths(s, d)
				if ok != ok2 || !reflect.DeepEqual(paths, paths2) {
					t.Fatalf("iter %d: Paths(%d,%d) nondeterministic", iter, s, d)
				}
				if !ok {
					continue
				}
				if len(paths) == 0 || len(paths) > k {
					t.Fatalf("iter %d: %d paths for k=%d", iter, len(paths), k)
				}
				single, _ := plan.Path(s, d)
				if !reflect.DeepEqual(single, paths[0]) {
					t.Fatalf("iter %d: paths[0] != Path(%d,%d)", iter, s, d)
				}
				seen := make(map[edgeKey]bool)
				for pi, hops := range paths {
					if hops[len(hops)-1].Rank != d {
						t.Fatalf("iter %d: path %d of (%d,%d) ends at %d", iter, pi, s, d, hops[len(hops)-1].Rank)
					}
					for k2 := range edgeSet(s, hops) {
						if seen[k2] {
							t.Fatalf("iter %d: pair (%d,%d) reuses edge %+v", iter, s, d, k2)
						}
						seen[k2] = true
					}
				}
			}
		}
	}
}

// TestPathSegmentBottleneck: the relay segment of a multi-hop path is the
// smallest PipelineSegment along it, and a direct pair's is its one
// network's own (its stripe segment; the cluster drops it for a lone
// direct rail, which relays nothing).
func TestPathSegmentBottleneck(t *testing.T) {
	sci, tcp, bip := netsim.SCISISCI(), netsim.FastEthernetTCP(), netsim.MyrinetBIP()
	g := Graph{
		N: 4,
		NetsOf: [][]string{
			{"sci"}, {"sci", "tcp"}, {"tcp", "myri"}, {"myri"},
		},
		Nets: map[string]netsim.Params{"sci": sci, "tcp": tcp, "myri": bip},
	}
	plan := compute(g, DefaultRefBytes)
	if got := plan.Hops(0, 3); got != 3 {
		t.Fatalf("hops(0,3) = %d, want 3", got)
	}
	want := min(sci.PipelineSegment(), tcp.PipelineSegment(), bip.PipelineSegment())
	path, _ := plan.Path(0, 3)
	if got := plan.Info(path).Segment; got != want {
		t.Fatalf("Info(Path(0,3)).Segment = %d, want bottleneck %d", got, want)
	}
	direct, _ := plan.Path(0, 1)
	if got := plan.Info(direct).Segment; got != sci.PipelineSegment() {
		t.Fatalf("direct pair segment = %d, want SCI's own %d", got, sci.PipelineSegment())
	}
}

// TestPathInfo: on a three-network line (SCI, TCP on a capped trunk,
// Myrinet) the one walk
// over a direct, a two-hop and a three-hop path prices each as the planner
// does, its bottleneck is its dearest hop, its segment and switch point the
// smallest along it, its class the slowest tier, and the link figures are
// summed, taken from the first hop or bounded by the narrowest as mpi.Link
// needs them.
func TestPathInfo(t *testing.T) {
	sci, tcp, bip := netsim.SCISISCI(), netsim.FastEthernetTCP(), netsim.MyrinetBIP()
	tcp.NetworkBandwidth = 5.6 * netsim.MB
	g := Graph{
		N:      4,
		NetsOf: [][]string{{"sci"}, {"sci", "tcp"}, {"tcp", "myri"}, {"myri"}},
		Nets:   map[string]netsim.Params{"sci": sci, "tcp": tcp, "myri": bip},
	}
	plan := compute(g, DefaultRefBytes)
	hop := func(p netsim.Params) float64 { return HopCost(p, DefaultRefBytes) }
	us := func(d vtime.Duration) float64 { return d.Micros() }
	for _, tc := range []struct {
		name                string
		dst                 int
		bottleneck          float64
		segment, switchAt   int
		class               DeviceClass
		latencyUS, bwMBs    float64
		deliverUS, sharedMB float64
	}{
		{"direct", 1, hop(sci), sci.PipelineSegment(), 8 << 10, ClassSAN,
			us(sci.WireLatency), 82.6, us(sci.Delivery()), 0},
		{"two-hop", 2, hop(tcp), min(sci.PipelineSegment(), tcp.PipelineSegment()), 8 << 10, ClassWAN,
			us(sci.WireLatency) + us(tcp.WireLatency), 11.2, us(sci.Delivery()) + us(tcp.Delivery()), 5.6},
		{"three-hop", 3, hop(tcp), min(sci.PipelineSegment(), tcp.PipelineSegment(), bip.PipelineSegment()), 7 << 10, ClassWAN,
			us(sci.WireLatency) + us(tcp.WireLatency) + us(bip.WireLatency), 11.2,
			us(sci.Delivery()) + us(tcp.Delivery()) + us(bip.Delivery()), 5.6},
	} {
		hops, ok := plan.Path(0, tc.dst)
		if !ok || len(hops) != tc.dst {
			t.Fatalf("%s: Path(0,%d) = %v, want %d hops", tc.name, tc.dst, hops, tc.dst)
		}
		in := plan.Info(hops)
		if cost, _ := plan.Cost(0, tc.dst); in.Cost != cost {
			t.Errorf("%s: Cost = %g, Plan.Cost %g", tc.name, in.Cost, cost)
		}
		if in.Bottleneck != tc.bottleneck || in.Segment != tc.segment || in.Switch != tc.switchAt || in.Class != tc.class {
			t.Errorf("%s: bottleneck %g, segment %d, switch %d, class %s; want %g, %d, %d, %s", tc.name,
				in.Bottleneck, in.Segment, in.Switch, in.Class, tc.bottleneck, tc.segment, tc.switchAt, tc.class)
		}
		if in.LatencyUS != tc.latencyUS || in.DeliverUS != tc.deliverUS || in.SendUS != us(sci.SendOverhead) ||
			in.BandwidthMBs != tc.bwMBs || in.SharedMBs != tc.sharedMB {
			t.Errorf("%s: link figures %+v, want latency %g, delivery %g, send %g, bandwidth %g, trunk %g", tc.name,
				in, tc.latencyUS, tc.deliverUS, us(sci.SendOverhead), tc.bwMBs, tc.sharedMB)
		}
	}
}
