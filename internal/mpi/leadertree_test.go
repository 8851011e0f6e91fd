package mpi

// The leader level's tree builder on its own: what logGPTree promises for
// every leader count and link, and what twoLevelTree makes of it on each
// rank's own view.

import (
	"math/bits"
	"slices"
	"testing"

	"mpichmad/internal/vtime"
)

// informTimes replays a broadcast down a tree under the builder's cost model
// — a node's j-th send starts j sends after it was informed and lands deliver
// later — checking on the way that the tree spans n nodes without a cycle,
// and returns the instant the last node is informed.
func informTimes(t *testing.T, n int, kidsOf func(r int) []int, send, deliver vtime.Duration) vtime.Duration {
	t.Helper()
	at := make([]vtime.Duration, n)
	seen := make([]bool, n)
	seen[0] = true
	done, visited := vtime.Duration(0), 1
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		r := queue[0]
		for j, k := range kidsOf(r) {
			if k <= 0 || k >= n || seen[k] {
				t.Fatalf("n=%d: node %d lists child %d, out of range or reached twice", n, r, k)
			}
			seen[k] = true
			visited++
			at[k] = at[r] + vtime.Duration(j)*send + deliver
			done = max(done, at[k])
			queue = append(queue, k)
		}
	}
	if visited != n {
		t.Fatalf("n=%d: the tree reaches %d nodes", n, visited)
	}
	return done
}

// TestLogGPTreeShape: for 1 to 130 leaders over a grid of injection cost,
// delivery time and message size, the tree spans the leaders without a cycle,
// parent and children agree, no node sends more than ⌈log2 n⌉ messages,
// children are listed in send order (the earlier informed carries the higher
// index, and the predicted completion is the replayed one), up to three
// leaders it is binomialOver's tree in binomialOver's order, and its predicted
// completion is never above the binomial tree's under the same model.
func TestLogGPTreeShape(t *testing.T) {
	const byteUS = 1e6 / (11.2 * (1 << 20)) // the capped Fast-Ethernet trunk
	ident := make([]int, 130)
	for i := range ident {
		ident[i] = i
	}
	for n := 1; n <= 130; n++ {
		for _, o := range []float64{0, 1, 30, 51} {
			for _, ratio := range []float64{1, 1.5, 4.13, 10, 100} {
				for _, nBytes := range []int{0, 64, 1 << 10, 16 << 10, 1 << 20} {
					send := vtime.Microseconds(o + float64(nBytes)*byteUS)
					deliver := vtime.Microseconds(max(o, 1)*ratio + float64(nBytes)*byteUS)
					tr, done := logGPTree(n, send, deliver)
					if len(tr.parent) != n || len(tr.kids) != n || tr.parent[0] != -1 {
						t.Fatalf("n=%d: %d parents, %d child lists, root's parent %d", n, len(tr.parent), len(tr.kids), tr.parent[0])
					}
					replayed := informTimes(t, n, func(r int) []int { return tr.kids[r] }, send, deliver)
					if replayed != done {
						t.Errorf("n=%d send=%v deliver=%v: predicted completion %v, replayed %v", n, send, deliver, done, replayed)
					}
					for r, kids := range tr.kids {
						if len(kids) > bits.Len(uint(n-1)) {
							t.Errorf("n=%d send=%v deliver=%v: node %d sends %d messages, more than ceil(log2 n) = %d",
								n, send, deliver, r, len(kids), bits.Len(uint(n-1)))
						}
						for j, k := range kids {
							if tr.parent[k] != r {
								t.Errorf("n=%d: node %d lists child %d, whose parent is %d", n, r, k, tr.parent[k])
							}
							if (r > 0 && k >= r) || (j > 0 && k >= kids[j-1]) {
								t.Errorf("n=%d send=%v deliver=%v: node %d's children %v are not numbered top-down in send order", n, send, deliver, r, kids)
							}
						}
					}
					binomial := informTimes(t, n, func(r int) []int { _, kids := binomialOver(ident[:n], 0, r); return kids }, send, deliver)
					if done > binomial {
						t.Errorf("n=%d send=%v deliver=%v: predicted completion %v above the binomial tree's %v", n, send, deliver, done, binomial)
					}
					if n <= 3 {
						for r := 0; r < n; r++ {
							if p, kids := binomialOver(ident[:n], 0, r); p != tr.parent[r] || !slices.Equal(kids, tr.kids[r]) {
								t.Errorf("n=%d send=%v deliver=%v: node %d has parent %d children %v, binomialOver %d %v",
									n, send, deliver, r, tr.parent[r], tr.kids[r], p, kids)
							}
						}
					}
				}
			}
		}
	}
}

// TestTwoLevelTreeOnEveryRanksView: each rank works out its own parent and
// children. On clusters of 1 to 4 ranks whose leader is not always the lowest
// rank, for roots that are leaders and plain members, with and without a
// backbone estimate and at sizes that change the leader level's shape: every
// child a rank lists names that rank as its parent, one rank has no parent,
// every rank reaches it, and exactly one edge per remote cluster crosses
// clusters — in a leader's list ahead of the edges inside its cluster.
func TestTwoLevelTreeOnEveryRanksView(t *testing.T) {
	for _, nc := range []int{1, 2, 3, 4, 7, 16, 33, 64} {
		g := &groupView{nClusters: nc}
		for ci := 0; ci < nc; ci++ {
			var members []int
			for i := 0; i <= (ci*5+nc)%4; i++ {
				members = append(members, len(g.clusterOf))
				g.clusterOf = append(g.clusterOf, ci)
			}
			g.clusters = append(g.clusters, members)
			g.leaders = append(g.leaders, members[ci%len(members)])
		}
		n := len(g.clusterOf)
		for _, inter := range []Link{{}, {SendUS: 30, DeliverUS: 124, ByteUS: 0.0851}} {
			g.inter, g.trees = inter, nil
			for _, nBytes := range []int{0, 64, 16 << 10} {
				for _, root := range []int{0, g.leaders[nc/2], n - 1, n / 3} {
					parent := make([]int, n)
					children := make([][]int, n)
					for me := 0; me < n; me++ {
						c := &Comm{p: &Process{}, myRank: me}
						parent[me], children[me] = c.twoLevelTree(g.viewFor(me), root, nBytes)
					}
					crossing := 0
					for me := 0; me < n; me++ {
						if (parent[me] < 0) != (me == root) {
							t.Fatalf("%d clusters root %d: rank %d has parent %d", nc, root, me, parent[me])
						}
						inside := false
						for _, ch := range children[me] {
							if parent[ch] != me {
								t.Errorf("%d clusters root %d bytes %d: rank %d lists child %d, whose parent is %d", nc, root, nBytes, me, ch, parent[ch])
							}
							if g.clusterOf[ch] != g.clusterOf[me] {
								crossing++
								if inside {
									t.Errorf("%d clusters root %d: rank %d sends inside its cluster before the backbone: %v", nc, root, me, children[me])
								}
							} else {
								inside = true
							}
						}
						hops := 0
						for r := me; r != root; r = parent[r] {
							if hops++; hops > n {
								t.Fatalf("%d clusters root %d: rank %d never reaches the root", nc, root, me)
							}
							if !slices.Contains(children[parent[r]], r) {
								t.Fatalf("%d clusters root %d: rank %d's parent %d does not list it", nc, root, r, parent[r])
							}
						}
					}
					if crossing != nc-1 {
						t.Errorf("%d clusters root %d bytes %d: %d edges cross clusters, want %d", nc, root, nBytes, crossing, nc-1)
					}
				}
			}
		}
	}
}
