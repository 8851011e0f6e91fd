package mpi

// Multi-leader two-level schedule compilers: the bandwidth-aggregation
// forms of Bcast/Allreduce/Allgather/Alltoall. The single-leader
// compilers in hcoll.go cross the backbone once per slow link — but they
// funnel that one crossing through one elected leader and therefore one
// gateway, leaving every other gateway of the cluster idle. These
// compilers spread the inter-cluster payload over the cluster's *leader
// set* (Hierarchy.LeaderSets: one co-leader per distinct gateway), so that
// every bridge of the machine carries its share at once and every crossing
// runs between the two co-leaders at the ends of one bridge, which no
// device has to relay — the Madeleine pitch applied to collectives.
//
// One structure serves all four. Who carries what between two clusters is
// read off one table, built once per group (groupView.relays): for every
// ordered cluster pair the co-leader couples fronting a bridge the two
// share, or, where they share none, the k-th co-leaders of both, whose
// messages the fabric routes. Leader sets narrower than the widest wrap, so
// a cluster behind a single gateway still works — it just funnels.
//
//   - Allreduce, Allgather and Alltoall frame one bridge round
//     (schedBuilder.bridgeExchange, phases.go) with intra-cluster rounds:
//     the traffic of an ordered pair is striped over the pair's couples,
//     every stripe crosses in eager-path chunks, every inbound chunk is
//     pre-posted beside the outbound sends. What differs is what crosses
//     and how it gets to and from the couples: Allreduce cuts the vector
//     into one piece per cluster and crosses twice, a reduce-scatter and an
//     allgather, its data handed between the primary leader and the couples
//     (handOff); Allgather crosses once with each cluster's bundle, which
//     the members assemble among themselves; Alltoall crosses once with each
//     directed bundle, which the members feed to the couples and the
//     couples scatter, block by block. What lands fans out inside the
//     cluster from where it landed (fanOut).
//   - Bcast has one source, so it pipelines instead: shard k walks a chain of
//     clusters rotated by k, each hop a couple picked from the same table
//     (emissary), in eager-path segments (see bcastMulti).
//
// Deadlock and FIFO discipline. Every rank emits the same global sequence
// of phases, and inside a phase walks clusters, couples, members and
// pieces in the same ascending order. A round pre-posts all its receives
// before its first send, and a round's sends wait for nothing the same
// phase delivers — except along a tree, fan-in or fan-out, whose edges
// point one way. So a blocked send (a rendez-vous body waiting for its
// receive to be posted) waits for a rank that only has earlier phases left
// to finish, and by induction over the phase order nothing waits in a
// circle. All messages of a schedule share one tag and match FIFO per
// source: a directed pair that carries several — chunks of a stripe, pieces
// of a fan-out, transfers of different phases — sends and posts them in
// the same order because both ends enumerate identically and derive every
// length from the same commTopo. Empty pieces and stripes (a vector shorter
// than the cluster count) are skipped on both ends.

// emissary picks the co-leader couple carrying shard k from cluster ci to
// cluster cj out of the pair's relay table, rotated by the shard index so
// different shards ride different bridges when the pair offers several.
// Returns x = -1 when the clusters share no bridge — the caller then sends
// from the shard's current holder and the fabric routes the transfer.
func (ct *commTopo) emissary(ci, cj, k int) (x, y int, g string) {
	rs := ct.relays[ci][cj]
	r := rs[k%len(rs)]
	if !r.direct {
		return -1, r.y, r.gw
	}
	return r.x, r.y, r.gw
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
// of some other shard never blocks on arrivals. It does so only where the
// deferral is free: its predecessor's sends must be eager (a whole shard
// above one segment may be a rendez-vous body, whose sender would wait for
// a receive posted after rounds that wait, in turn, for that sender) and
// must be the only stream of the cycles on that directed pair (a second
// one, received as it comes, would be matched first). Every rank emits its
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
	paths := make([][]int, K)
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
			paths[k] = path
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
	// A terminal rank may post its receives late only where that can neither
	// block its predecessor nor reorder a pair's streams: a whole shard
	// above one segment may be a rendez-vous body, which its sender waits
	// on, and two streams on one directed pair are matched in the order
	// they are sent — so a terminal rank whose predecessor also feeds it
	// another shard during the cycles takes its segments as they come.
	for k := range plans {
		pl := &plans[k]
		if pl.nseg == 1 && pl.hi-pl.lo > seg {
			pl.terminal = false
		}
		for k2, path := range paths {
			if i := posIn(path, c.myRank); k2 != k && i > 0 && path[i-1] == pl.pred {
				pl.terminal = false
			}
		}
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

// allreduceMulti is a cluster-level reduce-scatter followed by a
// cluster-level allgather. After the intra-cluster binomial reduce to the
// primary leader the vector is cut into one piece per cluster; piece j of
// every cluster's vector crosses to cluster j (hand-off to the co-leader
// facing j, bridge exchange, hand-off to j's primary), which folds the
// partials into the finished piece; the finished pieces cross back the same
// way and every piece fans out inside each cluster from where it landed. A
// directed bridge carries 2/C of the vector, once in each phase, and no
// device relays a byte.
//
// When a piece is shorter than the backbone's bandwidth-delay product the
// second crossing costs more in latency than the bytes it saves: the
// clusters then exchange their whole vectors in the first crossing, every
// primary folds all of them, and the allgather phase is dropped.
//
// The partials are folded in cluster order on every cluster — the own one
// in its place, which a commutative op allows — so that the clusters of the
// whole-vector case end on the same bits whatever the op rounds.
func (c *Comm) allreduceMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	count, dt, op := a.count, a.dt, a.op
	es, myD, seg := dt.Size(), ct.myCluster, c.segmentBytes()
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	leader := members[leaderPos]
	acc := b.loadAcc(a.send, a.recv, count, dt)

	parent, children := binomialOver(members, leaderPos, myPos)
	b.treeReduce(parent, children, acc, count, dt, op)

	// piece j is what cluster j finishes; ship(cj) what crosses to cluster cj
	// first and mine what this cluster folds — a piece, or the whole vector.
	eb := splitBounds(count, ct.nClusters)
	piece := func(j int) []byte { return acc[eb[j]*es : eb[j+1]*es] }
	ship, mine := piece, piece(myD)
	inter := c.p.hier.Inter
	whole := float64(len(acc)) <= float64(ct.nClusters)*inter.LatencyUS*inter.BandwidthMBs*(1<<20)/1e6
	if whole {
		ship, mine = func(int) []byte { return acc }, acc
	}

	// Reduce-scatter: the other clusters' partials of mine land in part.
	part := make([][]byte, ct.nClusters)
	in := func(ci int) []byte {
		if part[ci] == nil {
			part[ci] = b.stage(len(mine))
		}
		return part[ci]
	}
	b.handOff(ct, c.myRank, leader, false, ship)
	b.bridgeExchange(ct, c.myRank, seg, ship, in)
	b.handOff(ct, c.myRank, leader, true, in)
	if c.myRank == leader && len(mine) > 0 {
		run := mine
		if myD > 0 {
			run = in(0)
		}
		for di := 1; di < ct.nClusters; di++ {
			if di == myD {
				b.reduce(mine, run, len(mine)/es, dt, op)
				run = mine
			} else {
				b.reduce(run, in(di), len(mine)/es, dt, op)
			}
		}
		b.endRound()
	}

	if whole {
		b.treeBcast(parent, children, acc)
		b.endRound()
	} else {
		// Allgather: my finished piece to every cluster, theirs in place.
		home := func(int) []byte { return mine }
		b.handOff(ct, c.myRank, leader, false, home)
		b.bridgeExchange(ct, c.myRank, seg, home, piece)
		b.fanOut(ct, c.myRank, leader, piece)
	}
	return c.unpackVector(a.recv, count, dt, acc)
}

// allgatherMulti ships each cluster's bundle once over each of its bridges.
// The home bundle assembles on every member by a direct exchange on the
// fast fabric, so every co-leader can ship at once and nothing funnels
// through the primary; the bridge exchange lands the other clusters'
// bundles on the co-leaders facing them, and each fans out from there. A
// directed bridge carries one cluster's bundle, 1/C of the result.
func (c *Comm) allgatherMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	sz, ex := a.count*a.dt.Size(), a.dt.Extent()
	members := ct.clusters[ct.myCluster]
	mine := PackBuf(a.send, a.count, a.dt)
	// bundle[di]: cluster di's blocks in member order, on every rank. The
	// home one is gathered by every member at once.
	bundle := make([][]byte, ct.nClusters)
	for _, di := range ct.remote {
		bundle[di] = b.stage(len(ct.clusters[di]) * sz)
	}
	for _, m := range members {
		if m != c.myRank {
			b.send(m, mine)
		}
	}
	home := b.gatherBundle(members, c.myRank, mine)
	bundle[ct.myCluster] = home

	b.bridgeExchange(ct, c.myRank, c.segmentBytes(), func(int) []byte { return home },
		func(ci int) []byte { return bundle[ci] })
	b.fanOut(ct, c.myRank, c.myRank, func(ci int) []byte {
		if ci == ct.myCluster {
			return nil
		}
		return bundle[ci]
	})
	return func() {
		c.p.M.Compute(c.p.memTime(c.Size() * sz))
		for di, bun := range bundle {
			for i, m := range ct.clusters[di] {
				UnpackBuf(a.recv[m*a.count*ex:], a.count, a.dt, bun[i*sz:(i+1)*sz])
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
	n := c.Size()
	sz := a.count * a.dt.Size()
	members := ct.clusters[ct.myCluster]
	myD := ct.myCluster
	mine := PackBuf(a.send, n*a.count, a.dt)
	myRecv := b.landing(a.recvApart(), n*sz, a.dt)
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
	// to the emissary whose stripe they fall in; an emissary assembles its
	// stripe in place in a bundle-sized buffer.
	bundleOut := make([][]byte, ct.nClusters)
	for _, cj := range ct.remote {
		rs := ct.relays[myD][cj]
		lj := len(ct.clusters[cj])
		pb := splitBounds(len(members)*lj*sz, len(rs))
		for p, r := range rs {
			if r.x == c.myRank && bundleOut[cj] == nil {
				bundleOut[cj] = b.stage(len(members) * lj * sz)
			}
			for i := range members {
				lo, hi := overlap(i*lj*sz, (i+1)*lj*sz, pb[p], pb[p+1])
				if hi <= lo {
					continue
				}
				switch {
				case r.x == c.myRank && members[i] == c.myRank:
					b.copyStep(bundleOut[cj][lo:hi], out[cj][lo-i*lj*sz:hi-i*lj*sz])
				case r.x == c.myRank:
					b.recv(members[i], bundleOut[cj][lo:hi])
				case members[i] == c.myRank:
					b.send(r.x, out[cj][lo-i*lj*sz:hi-i*lj*sz])
				}
			}
		}
	}
	b.endRound()

	// Round 3: the bridge exchange.
	bundleIn := make([][]byte, ct.nClusters)
	b.bridgeExchange(ct, c.myRank, c.segmentBytes(),
		func(cj int) []byte { return bundleOut[cj] },
		func(ci int) []byte {
			if bundleIn[ci] == nil {
				bundleIn[ci] = b.stage(len(ct.clusters[ci]) * len(members) * sz)
			}
			return bundleIn[ci]
		})

	// Round 4: scatter — every inbound stripe's block pieces go straight
	// to their final ranks; destinations land them in receive-vector
	// position, offset by where the stripe boundary cut the block.
	for _, ci := range ct.remote {
		rs := ct.relays[ci][myD]
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
						b.copyStep(dstBuf, bundleIn[ci][lo:hi])
					case fromMe:
						b.send(dst, bundleIn[ci][lo:hi])
					case dst == c.myRank:
						b.recv(r.y, dstBuf)
					}
				}
			}
		}
	}
	b.endRound()
	return c.unpackBlocks(a.recv, a.count, a.dt, myRecv)
}
