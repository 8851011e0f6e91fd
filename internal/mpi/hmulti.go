package mpi

// Multi-leader two-level schedule compilers: the bandwidth-aggregation
// forms of Bcast/Allreduce/Allgather/Alltoall. The single-leader
// compilers in hcoll.go cross the backbone once per slow link — but they
// funnel that one crossing through one elected leader and therefore one
// gateway, leaving every other gateway of the cluster idle. These
// compilers shard the inter-cluster payload across the cluster's *leader
// set* (Hierarchy.LeaderSets: one co-leader per distinct gateway), so
// shard k ships over co-leader k's gateway while shard k+1 concurrently
// rides another — aggregate backbone bandwidth across every link the
// machine offers, the Madeleine pitch applied to collectives.
//
// Structure shared by Allreduce/Allgather/Alltoall: an intra-cluster
// phase concentrates data on the primary leader (or the root), a scatter
// round deals shard k to co-leader k, the inter-cluster phase runs per
// shard between the clusters' co-leaders (each pair's transfer riding
// its own gateway), and an intra-cluster redistribute phase fans the
// shards back out. Bcast instead pipelines each shard along a rotated
// relay chain of bridge-facing co-leaders (see bcastMulti).
// Shards are dealt round-robin (coLeader wraps), so clusters behind a
// single gateway still work — they just funnel, as before.
//
// Determinism/FIFO discipline: every merged round enumerates (shard k
// ascending, cluster ascending), and both endpoints of a pair derive the
// same shard bounds from the same commTopo, so per-(source, tag) FIFO
// matching pairs transfers correctly. Zero-length shards (payload
// smaller than the shard count) are skipped symmetrically.

// myShards returns the ascending shard indices this rank co-leads in its
// cluster, given K total shards; empty for non-co-leaders.
func (ct *commTopo) myShards(me, K int) []int {
	var ks []int
	for k := 0; k < K; k++ {
		if ct.coLeader(ct.myCluster, k) == me {
			ks = append(ks, k)
		}
	}
	return ks
}

// shardTreeRounds appends, for each shard k in ascending order, a
// binomial broadcast of bufs[k] over this rank's cluster rooted at its
// k-th co-leader — the intra-cluster redistribute phase. The per-shard
// phases are serialized (each its own recv/send round pair) so a rank's
// role deep in one shard tree cannot deadlock against its role near the
// root of another; the shards ride the fast fabric, where the
// serialization is cheap. Rounds ride their shard's lane (co-leader index
// and gateway) in the trace.
func (c *Comm) shardTreeRounds(b *schedBuilder, ct *commTopo, bufs [][]byte) {
	members := ct.clusters[ct.myCluster]
	myPos := posIn(members, c.myRank)
	for k, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		parent, children := binomialOver(members, posIn(members, ct.coLeader(ct.myCluster, k)), myPos)
		b.lane(k, ct.coLeaderGW(ct.myCluster, k))
		b.treeBcast(parent, children, buf)
		b.endRound()
	}
}

// emissary picks the co-leader pair carrying a shard from cluster ci to
// cluster cj: a sender in ci and receiver in cj fronting the *same*
// gateway network (the two ends of a direct bridge), rotated by the
// shard index so different shards ride different bridges when the pair
// offers several. Returns x = -1 when the clusters share no bridge —
// the caller then sends from the shard's current holder and the fabric
// routes the transfer.
func (ct *commTopo) emissary(ci, cj, k int) (x, y int, g string) {
	fromGW := make(map[string]int, len(ct.leaderGW[ci]))
	for idx, gn := range ct.leaderGW[ci] {
		if _, dup := fromGW[gn]; gn != "" && !dup {
			fromGW[gn] = ct.leaderSets[ci][idx]
		}
	}
	var xs, ys []int
	var gs []string
	for idx, gn := range ct.leaderGW[cj] {
		if gn == "" {
			continue
		}
		if xr, ok := fromGW[gn]; ok {
			xs, ys, gs = append(xs, xr), append(ys, ct.leaderSets[cj][idx]), append(gs, gn)
		}
	}
	if len(xs) == 0 {
		return -1, ct.coLeader(cj, k), ct.coLeaderGW(cj, k)
	}
	i := k % len(xs)
	return xs[i], ys[i], gs[i]
}

// shardChain lays out shard k's inter-cluster relay chain: the clusters
// in visiting order (root cluster first, the rest rotated by k so each
// shard walks the machine in a different direction), the rank holding
// the shard in each cluster (the bridge-facing receiver), the rank it
// departs each non-terminal cluster from (the bridge-facing sender —
// the holder itself when the clusters share no direct bridge), and the
// gateway network it entered through.
func (ct *commTopo) shardChain(rootCluster, root, k int) (order, holder, egress []int, via []string) {
	order = make([]int, 0, ct.nClusters)
	order = append(order, rootCluster)
	var others []int
	for di := 0; di < ct.nClusters; di++ {
		if di != rootCluster {
			others = append(others, di)
		}
	}
	for i := range others {
		order = append(order, others[(i+k)%len(others)])
	}
	holder = make([]int, ct.nClusters)
	egress = make([]int, ct.nClusters)
	via = make([]string, ct.nClusters)
	for di := range egress {
		egress[di] = -1
	}
	holder[rootCluster] = root
	for i := 1; i < len(order); i++ {
		ci, cj := order[i-1], order[i]
		x, y, g := ct.emissary(ci, cj, k)
		if x < 0 {
			x = holder[ci]
		}
		egress[ci], holder[cj], via[cj] = x, y, g
	}
	return order, holder, egress, via
}

// bcastMulti broadcasts with the inter-cluster phase sharded
// across the leader sets. Shard k travels a linear relay path over the
// clusters — root cluster first, the rest rotated by k — where each
// bridge hop runs directly between the two co-leaders fronting a shared
// gateway (the shard reaches its cluster's bridge-facing egress in one
// fast-fabric hop first), so concurrent shards cross the machine in
// different directions over different gateways and every directed bridge
// pipe carries ~1/K of the payload. The path is pipelined in eager-path
// segments exactly like the segmented single-leader form: each path rank
// forwards segment s while segment s+1 is still crossing the previous
// bridge. After the segment cycles, each cluster's holder streams the
// shard — again as eager segments, so the stream never blocks — to the
// members the path skipped, except in the path's last cluster where a
// whole-shard binomial tree from the terminal rank finishes the job.
//
// Two details keep opposite directions of a shared bridge concurrently
// busy instead of ping-ponging: only path ranks take per-segment rounds
// (everyone else matches its segments in one deferred round after the
// cycles, buffered by the eager protocol in the meantime), and the
// path's *terminal* rank — the one rank with per-segment receives but no
// forwarding — defers its receives the same way, so its role as a sender
// of some other shard never blocks on arrivals. Every rank emits its
// rounds in the same global (cycle, shard, path-position) order and
// every wait points to a strictly earlier position of that order, so the
// union of all waits is acyclic; repeated (src, dst) pairs match FIFO
// because both endpoints enumerate the cycle and the shard-ascending
// post phases identically.
func (c *Comm) bcastMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	K := ct.widest
	data, fin := c.bcastStaging(b, a)
	bounds := splitBounds(len(data), K)
	root, rootCluster := a.root, ct.clusterOf[a.root]
	members := ct.clusters[ct.myCluster]
	seg := c.segmentBytes()

	// My role on shard k's relay path and in its intra-cluster fan-out —
	// identical on every rank by construction.
	type shardPlan struct {
		pred, succ  int   // my path neighbors (-1 when absent / off-path)
		terminal    bool  // I am the path's last rank: defer my receives
		termCluster bool  // my cluster is the path's last stop
		sinks       []int // my cluster's members the path never touches
		holder      int   // the shard's holder in my cluster
		lo, hi      int
		nseg        int
		gw          string
	}
	plans := make([]shardPlan, K)
	maxSeg := 0
	for k := 0; k < K; k++ {
		pl := shardPlan{pred: -1, succ: -1, lo: bounds[k], hi: bounds[k+1]}
		if sz := pl.hi - pl.lo; sz > 0 {
			order, holder, egress, via := ct.shardChain(rootCluster, root, k)
			di := ct.myCluster
			pl.holder = holder[di]
			pl.gw = via[di]
			if pl.gw == "" {
				pl.gw = ct.coLeaderGW(di, k)
			}
			// The linear path: holder, then egress when distinct, per
			// cluster in visiting order.
			var path []int
			for _, cl := range order {
				path = append(path, holder[cl])
				if x := egress[cl]; x >= 0 && x != holder[cl] {
					path = append(path, x)
				}
			}
			if i := posIn(path, c.myRank); i >= 0 {
				if i > 0 {
					pl.pred = path[i-1]
				}
				if i+1 < len(path) {
					pl.succ = path[i+1]
				}
				pl.terminal = i == len(path)-1
			}
			local := []int{holder[di]}
			if x := egress[di]; x >= 0 && x != holder[di] {
				local = append(local, x)
			}
			for _, m := range members {
				if posIn(local, m) < 0 {
					pl.sinks = append(pl.sinks, m)
				}
			}
			pl.termCluster = di == order[len(order)-1]
			pl.nseg = 1
			if sz > 2*seg {
				pl.nseg = (sz + seg - 1) / seg
			}
			if pl.nseg > maxSeg {
				maxSeg = pl.nseg
			}
		}
		plans[k] = pl
	}

	chunkOf := func(pl *shardPlan, s int) []byte {
		if pl.nseg == 1 {
			return data[pl.lo:pl.hi]
		}
		lo := pl.lo + s*seg
		return data[lo:min(lo+seg, pl.hi)]
	}

	// Segment cycles along the relay paths.
	for s := 0; s < maxSeg; s++ {
		for k := 0; k < K; k++ {
			pl := &plans[k]
			if pl.hi == pl.lo || s >= pl.nseg {
				continue
			}
			chunk := chunkOf(pl, s)
			b.lane(k, pl.gw)
			if pl.pred >= 0 && !pl.terminal {
				b.recv(pl.pred, chunk)
				b.endRound()
			}
			if pl.succ >= 0 {
				b.send(pl.succ, chunk)
				b.endRound()
			}
		}
	}

	// Post phase, serialized per shard. The terminal rank matches all its
	// (long since buffered) segments in one round. In every non-terminal
	// cluster the holder then streams the shard's segments — all on the
	// eager path, so nothing here ever blocks a sender — to the members
	// the path never touched, which match them in one deferred round. The
	// terminal cluster instead fans the assembled shard out through a
	// whole-shard binomial tree rooted at the terminal rank.
	//
	// FIFO safety: every rank's cycle rounds precede its post rounds and
	// the post phases run in ascending shard order on every rank, so any
	// directed pair that carries several streams (a path lane of one shard
	// plus a fan-out lane of another) sends and matches them in the same
	// global (cycle, then shard-ascending post) order.
	for k := 0; k < K; k++ {
		pl := &plans[k]
		if pl.hi == pl.lo {
			continue
		}
		b.lane(k, pl.gw)
		if pl.terminal && pl.pred >= 0 {
			for s := 0; s < pl.nseg; s++ {
				b.recv(pl.pred, chunkOf(pl, s))
			}
			b.endRound()
		}
		if !pl.termCluster {
			if c.myRank == pl.holder {
				for s := 0; s < pl.nseg; s++ {
					for _, sk := range pl.sinks {
						b.send(sk, chunkOf(pl, s))
					}
				}
			} else if posIn(pl.sinks, c.myRank) >= 0 {
				for s := 0; s < pl.nseg; s++ {
					b.recv(pl.holder, chunkOf(pl, s))
				}
			}
			b.endRound()
			continue
		}
		// Terminal cluster: binomial fan-out of the whole shard from the
		// terminal rank to the members the path never touched.
		group := make([]int, 0, len(members))
		for _, m := range members {
			if m == pl.holder || posIn(pl.sinks, m) >= 0 {
				group = append(group, m)
			}
		}
		if posIn(group, c.myRank) < 0 || len(group) < 2 {
			continue
		}
		parent, children := binomialOver(group, posIn(group, pl.holder), posIn(group, c.myRank))
		b.treeBcast(parent, children, data[pl.lo:pl.hi])
		b.endRound()
	}
	return fin
}

// allreduceMulti: intra-cluster binomial reduce to the primary
// leader, a shard scatter to the co-leaders, a per-shard binomial
// reduce-then-broadcast over the clusters' k-th co-leaders (rooted at
// cluster 0), and per-shard intra-cluster trees fanning the reduced
// shards back to every member. The backbone carries each cluster's
// reduced vector once per direction — as the single-leader form — but
// split across every gateway of the leader set concurrently.
func (c *Comm) allreduceMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	K := ct.widest
	count, dt, op := a.count, a.dt, a.op
	es := dt.Size()
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	leader := members[leaderPos]
	acc := b.loadAcc(a.send, a.recv, count, dt)
	eb := splitBounds(count, K)
	shard := func(k int) []byte { return acc[eb[k]*es : eb[k+1]*es] }
	scount := func(k int) int { return eb[k+1] - eb[k] }
	mine := ct.myShards(c.myRank, K)

	// Phase 1: intra-cluster binomial reduce to the primary leader.
	parent, children := binomialOver(members, leaderPos, myPos)
	b.treeReduce(parent, children, acc, count, dt, op)

	// Phase 2: the primary deals shard k of the cluster-reduced vector to
	// co-leader k.
	if c.myRank == leader {
		for k := 0; k < K; k++ {
			if cl := ct.coLeader(ct.myCluster, k); cl != leader && scount(k) > 0 {
				b.send(cl, shard(k))
			}
		}
		b.endRound()
	} else if len(mine) > 0 {
		for _, k := range mine {
			if scount(k) > 0 {
				b.recv(leader, shard(k))
			}
		}
		b.endRound()
	}

	// Phase 3: per-shard binomial reduce over the k-th co-leaders to
	// cluster 0's co-leader, result broadcast back down the same tree.
	// The cluster-level tree shape is identical for every k, so the
	// rounds merge across my shards.
	if len(mine) > 0 {
		group := make([]int, ct.nClusters)
		tree := func(k int) (int, []int) {
			for di := range group {
				group[di] = ct.coLeader(di, k)
			}
			return binomialOver(group, 0, ct.myCluster)
		}
		b.lane(mine[0], ct.coLeaderGW(ct.myCluster, mine[0]))
		for _, k := range mine {
			if scount(k) == 0 {
				continue
			}
			_, kids := tree(k)
			for i := len(kids) - 1; i >= 0; i-- {
				part := b.stage(scount(k) * es)
				b.recv(kids[i], part)
				b.reduce(shard(k), part, scount(k), dt, op)
			}
		}
		b.endRound()
		for _, k := range mine {
			if scount(k) == 0 {
				continue
			}
			if p, _ := tree(k); p >= 0 {
				b.send(p, shard(k))
			}
		}
		b.endRound()
		for _, k := range mine {
			if scount(k) == 0 {
				continue
			}
			if p, _ := tree(k); p >= 0 {
				b.recv(p, shard(k))
			}
		}
		b.endRound()
		for _, k := range mine {
			if scount(k) == 0 {
				continue
			}
			_, kids := tree(k)
			for _, ch := range kids {
				b.send(ch, shard(k))
			}
		}
		b.endRound()
	}

	// Phase 4: per-shard intra-cluster trees from the co-leaders.
	bufs := make([][]byte, K)
	for k := range bufs {
		bufs[k] = shard(k)
	}
	c.shardTreeRounds(b, ct, bufs)
	return c.unpackVector(a.recv, count, dt, acc)
}

// allgatherShardLayout computes the multi-leader allgather's staging
// geometry: bb[di] are the byte bounds splitting cluster di's bundle into
// K shards, off[k][di] the offset of cluster di's piece within the
// shard-k staging buffer, and size[k] that buffer's total length.
func allgatherShardLayout(ct *commTopo, sz, K int) (bb [][]int, off [][]int, size []int) {
	bb = make([][]int, ct.nClusters)
	for di := range bb {
		bb[di] = splitBounds(len(ct.clusters[di])*sz, K)
	}
	off = make([][]int, K)
	size = make([]int, K)
	for k := 0; k < K; k++ {
		off[k] = make([]int, ct.nClusters+1)
		for di := 0; di < ct.nClusters; di++ {
			off[k][di] = size[k]
			size[k] += bb[di][k+1] - bb[di][k]
		}
		off[k][ct.nClusters] = size[k]
	}
	return bb, off, size
}

// allgatherMulti: intra-cluster gather to the primary leader,
// a shard scatter of the home bundle to the co-leaders, a pairwise
// co-leader exchange (co-leader k of every cluster swaps shard k of its
// home bundle with its peers, receives pre-posted so the concurrent
// rendez-vous bodies cannot deadlock), and per-shard intra-cluster trees
// broadcasting each assembled shard-k staging buffer to every member.
// Each directed gateway carries 1/K of the inter-cluster bytes.
func (c *Comm) allgatherMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	K := ct.widest
	n := c.Size()
	count, dt := a.count, a.dt
	sz := count * dt.Size()
	ex := dt.Extent()
	members := ct.clusters[ct.myCluster]
	leader := ct.leaders[ct.myCluster]
	myD := ct.myCluster
	mineKs := ct.myShards(c.myRank, K)
	mine := PackBuf(a.send, count, dt)
	bb, off, size := allgatherShardLayout(ct, sz, K)
	// stage[k]: cluster di's bundle bytes [bb[di][k], bb[di][k+1]) at
	// offset off[k][di] — every member ends up holding all K buffers.
	stage := make([][]byte, K)
	for k := 0; k < K; k++ {
		stage[k] = b.stage(size[k])
	}
	homeShard := func(k int) []byte {
		return stage[k][off[k][myD] : off[k][myD]+bb[myD][k+1]-bb[myD][k]]
	}

	if c.myRank == leader {
		// Phase 1: gather the home bundle.
		bundle := b.gatherBundle(members, c.myRank, mine)
		// Phase 2: deal shard k of the home bundle to co-leader k (my own
		// shards land in my staging directly).
		for k := 0; k < K; k++ {
			src := bundle[bb[myD][k]:bb[myD][k+1]]
			if len(src) == 0 {
				continue
			}
			if cl := ct.coLeader(myD, k); cl != leader {
				b.send(cl, src)
			} else {
				b.copyStep(homeShard(k), src)
			}
		}
		b.endRound()
	} else {
		b.send(leader, mine)
		b.endRound()
		if len(mineKs) > 0 {
			for _, k := range mineKs {
				if len(homeShard(k)) > 0 {
					b.recv(leader, homeShard(k))
				}
			}
			b.endRound()
		}
	}

	// Phase 3: pairwise co-leader shard exchange across clusters.
	if len(mineKs) > 0 {
		for _, k := range mineKs {
			for _, di := range ct.remote {
				if dst := stage[k][off[k][di]:off[k][di+1]]; len(dst) > 0 {
					b.recv(ct.coLeader(di, k), dst)
				}
			}
		}
		for _, k := range mineKs {
			if len(homeShard(k)) == 0 {
				continue
			}
			for _, di := range ct.remote {
				b.send(ct.coLeader(di, k), homeShard(k))
			}
		}
		b.lane(mineKs[0], ct.coLeaderGW(myD, mineKs[0]))
		b.endRound()
	}

	// Phase 4: per-shard intra-cluster trees of the staging buffers.
	c.shardTreeRounds(b, ct, stage)
	bun := b.stage(n * sz)
	return func() {
		c.p.M.Compute(c.p.memTime(n * sz))
		for di := 0; di < ct.nClusters; di++ {
			bun = bun[:0]
			for k := 0; k < K; k++ {
				bun = append(bun, stage[k][off[k][di]:off[k][di+1]]...)
			}
			for i, m := range ct.clusters[di] {
				UnpackBuf(a.recv[m*count*ex:], count, dt, bun[i*sz:(i+1)*sz])
			}
		}
	}
}

// alltoallMulti is the direct-sharded two-level all-to-all.
// Alltoall cannot reduce backbone *bytes* (every block is unique), so the
// levers are where the bytes cross and what they pay on the way: for each
// directed cluster pair the bundle is striped over the pair's distinct
// emissary relays — co-leader pairs fronting a shared gateway, found
// exactly like the Bcast chain hops, so every bundle crosses its bridge
// in one hop with no store-and-forward device relays — and the gather /
// exchange / scatter pipeline never funnels through the primary leader:
// members feed their slices straight to the emissaries, the emissaries
// exchange full-duplex (receives pre-posted alongside the sends in one
// round, so opposite directions of a bridge stay concurrently busy), and
// the inbound shards scatter block-wise straight to their final ranks.
//
// Every rank emits the same global round sequence — stage, intra
// exchange, gather, bridge exchange, scatter — with identical ascending
// (cluster, relay, source, destination) enumeration inside each round,
// so any directed pair reused across rounds sends and matches its
// messages in the same order (one tag, FIFO per source).
func (c *Comm) alltoallMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	K := ct.widest
	n := c.Size()
	sz := a.count * a.dt.Size()
	members := ct.clusters[ct.myCluster]
	myD := ct.myCluster
	mine := PackBuf(a.send, n*a.count, a.dt)
	myRecv := b.landing(a.recvApart(), n*sz, a.dt)

	// The distinct emissary relays striping bundle ci -> cj; shard p of
	// the bundle rides relay p. Identical on every rank.
	type relay struct {
		x, y int
		gw   string
	}
	relays := func(ci, cj int) []relay {
		var rs []relay
		for k := 0; k < K; k++ {
			x, y, g := ct.emissary(ci, cj, k)
			if x < 0 {
				x = ct.coLeader(ci, k)
			}
			dup := false
			for _, r := range rs {
				if r.x == x && r.y == y {
					dup = true
					break
				}
			}
			if !dup {
				rs = append(rs, relay{x, y, g})
			}
		}
		return rs
	}
	overlap := func(alo, ahi, blo, bhi int) (int, int) { return max(alo, blo), min(ahi, bhi) }

	// Round 0: stage my per-cluster outbound bundles (src-member-ascending
	// slices of the directed bundle) and keep my own block.
	out := make([][]byte, ct.nClusters)
	for _, cj := range ct.remote {
		dm := ct.clusters[cj]
		out[cj] = b.stage(len(dm) * sz)
		for jj, dst := range dm {
			b.copyStep(out[cj][jj*sz:(jj+1)*sz], mine[dst*sz:(dst+1)*sz])
		}
	}
	b.copyStep(myRecv[c.myRank*sz:(c.myRank+1)*sz], mine[c.myRank*sz:(c.myRank+1)*sz])
	b.endRound()

	// Round 1: intra-cluster blocks exchange pairwise on the fast fabric.
	for _, m := range members {
		if m == c.myRank {
			continue
		}
		b.recv(m, myRecv[m*sz:(m+1)*sz])
	}
	for _, m := range members {
		if m == c.myRank {
			continue
		}
		b.send(m, mine[m*sz:(m+1)*sz])
	}
	b.endRound()

	// Round 2: gather — each member feeds the pieces of its bundle slice
	// to the emissary whose shard they fall in; emissaries assemble their
	// outbound shards.
	shardOut := make([][][]byte, ct.nClusters)
	myGW := ""
	for _, cj := range ct.remote {
		rs := relays(myD, cj)
		lj := len(ct.clusters[cj])
		pb := splitBounds(len(members)*lj*sz, len(rs))
		shardOut[cj] = make([][]byte, len(rs))
		for p, r := range rs {
			if r.x == c.myRank {
				shardOut[cj][p] = b.stage(pb[p+1] - pb[p])
				if myGW == "" {
					myGW = r.gw
				}
			}
		}
		for p, r := range rs {
			for i := range members {
				lo, hi := overlap(i*lj*sz, (i+1)*lj*sz, pb[p], pb[p+1])
				if hi <= lo {
					continue
				}
				switch {
				case r.x == c.myRank && members[i] == c.myRank:
					b.copyStep(shardOut[cj][p][lo-pb[p]:hi-pb[p]], out[cj][lo-i*lj*sz:hi-i*lj*sz])
				case r.x == c.myRank:
					b.recv(members[i], shardOut[cj][p][lo-pb[p]:hi-pb[p]])
				case members[i] == c.myRank:
					b.send(r.x, out[cj][lo-i*lj*sz:hi-i*lj*sz])
				}
			}
		}
	}
	if myGW != "" {
		b.lane(0, myGW)
	}
	b.endRound()

	// Round 3: the bridge exchange — full duplex, every inbound chunk
	// pre-posted alongside the outbound sends. Big shards cross in
	// eager-path segments rather than one rendez-vous body: the segments
	// complete locally at the sender, keep both directions of a shared
	// bridge concurrently busy, and skip the whole-body handshake.
	seg := c.segmentBytes()
	chunks := func(buf []byte, emit func(chunk []byte)) {
		if len(buf) <= 2*seg {
			emit(buf)
			return
		}
		for off := 0; off < len(buf); off += seg {
			emit(buf[off:min(off+seg, len(buf))])
		}
	}
	inShard := make([][][]byte, ct.nClusters)
	for _, ci := range ct.remote {
		rs := relays(ci, myD)
		pb := splitBounds(len(ct.clusters[ci])*len(members)*sz, len(rs))
		inShard[ci] = make([][]byte, len(rs))
		for p, r := range rs {
			if r.y != c.myRank {
				continue
			}
			inShard[ci][p] = b.stage(pb[p+1] - pb[p])
			chunks(inShard[ci][p], func(chunk []byte) { b.recv(r.x, chunk) })
			if myGW == "" {
				myGW = r.gw
			}
		}
	}
	for _, cj := range ct.remote {
		for p, r := range relays(myD, cj) {
			if r.x == c.myRank {
				chunks(shardOut[cj][p], func(chunk []byte) { b.send(r.y, chunk) })
			}
		}
	}
	if myGW != "" {
		b.lane(0, myGW)
	}
	b.endRound()

	// Round 4: scatter — every inbound shard's block pieces go straight
	// to their final ranks; destinations land them in receive-vector
	// position, offset by where the shard boundary cut the block.
	for _, ci := range ct.remote {
		rs := relays(ci, myD)
		sm := ct.clusters[ci]
		pb := splitBounds(len(sm)*len(members)*sz, len(rs))
		for p, r := range rs {
			fromMe := r.y == c.myRank
			for i, srcR := range sm {
				for j, dst := range members {
					blo := (i*len(members) + j) * sz
					lo, hi := overlap(blo, blo+sz, pb[p], pb[p+1])
					if hi <= lo {
						continue
					}
					dstBuf := myRecv[srcR*sz+(lo-blo) : srcR*sz+(hi-blo)]
					switch {
					case fromMe && dst == c.myRank:
						b.copyStep(dstBuf, inShard[ci][p][lo-pb[p]:hi-pb[p]])
					case fromMe:
						b.send(dst, inShard[ci][p][lo-pb[p]:hi-pb[p]])
					case dst == c.myRank:
						b.recv(r.y, dstBuf)
					}
				}
			}
		}
	}
	if myGW != "" {
		b.lane(0, myGW)
	}
	b.endRound()
	return c.unpackBlocks(a.recv, a.count, a.dt, myRecv)
}
