package mpi

// Two-level (hierarchy-aware) schedule compilers. Each operation runs
// intra-cluster phases on the fast fabric around one leader level over the
// slow backbone: a tree or a star (Barrier, Bcast, Reduce, Gather), an
// all-pairs exchange (Allgather, Alltoall, ReduceScatter), or for Allreduce
// whichever of the two the backbone's LogGP numbers price lower. The number
// of inter-cluster messages depends on the clusters alone, where a flat
// algorithm's grows with n (O(log n), or O(n) for adversarial rank
// placements). See topology.go for the selection logic, forms.go for the
// table that binds these to (operation, algorithm) pairs, phases.go for
// the builders they are composed from and schedule.go for the execution
// model they compile into.
//
// Every compiler takes the commTopo it runs on. Run on the communicator's
// real hierarchy they are the two-level algorithms; run on the one-cluster
// view (oneClusterTopo) the leader level is empty and what remains is
// exactly the topology-blind algorithm — which is how the flat Bcast,
// Reduce, Allreduce, Gather, ring Allreduce and ring ReduceScatter are
// compiled.

// loadAcc opens a reduction: the accumulator — the landing of recvBuf, the
// buffer the reduced vector is for (nil: staging) — loaded with this rank's
// packed contribution in a round of its own. The send buffer is not read
// again afterwards, so it may be recvBuf.
func (b *schedBuilder) loadAcc(sendBuf, recvBuf []byte, count int, dt Datatype) []byte {
	acc := b.landing(recvBuf, count*dt.Size(), dt)
	b.copyStep(acc, b.packed(sendBuf, count, dt))
	b.endRound()
	return acc
}

// barrierTree: fan-in then fan-out over the two-level tree rooted at comm
// rank 0. The slow backbone carries exactly 2·(#clusters−1) empty
// messages, versus the dissemination algorithm's n·ceil(log2 n).
func (c *Comm) barrierTree(b *schedBuilder, ct *commTopo, _ collArgs) func() {
	parent, children := c.twoLevelTree(ct, 0, 0)
	for i := len(children) - 1; i >= 0; i-- {
		b.recv(children[i], nil)
	}
	b.endRound()
	if parent >= 0 {
		b.send(parent, nil)
		b.endRound()
	}
	b.treeBcast(parent, children, nil)
	return nil
}

// bcastTreeRounds appends the two-level tree broadcast of data rooted at
// root, optionally pipelining in segBytes segments (segBytes <= 0
// disables segmentation). Segments ride the eager path, so a rank can
// forward segment k to its children while its parent is already injecting
// segment k+1: the slow backbone transfer overlaps the fast intra-cluster
// fan-out, the paper's store-and-forward §6 scenario.
func (c *Comm) bcastTreeRounds(b *schedBuilder, ct *commTopo, data []byte, root, segBytes int) {
	total := len(data)
	seg := segBytes
	if seg <= 0 || seg > total {
		seg = total
	}
	parent, children := c.twoLevelTree(ct, root, seg)
	// One segment at least: an empty vector still makes its rounds.
	for lo := 0; lo < max(total, 1); lo += max(seg, 1) {
		b.treeBcast(parent, children, data[lo:min(lo+seg, total)])
		b.endRound()
	}
}

// bcastStaging returns a broadcast's packed staging vector — the payload
// at the root, empty elsewhere — and the completion closure landing it in
// the user buffer (nil at the root, whose buffer already holds it).
func (c *Comm) bcastStaging(b *schedBuilder, a collArgs) (data []byte, fin func()) {
	if c.myRank == a.root {
		return b.packed(a.send, a.count, a.dt), nil
	}
	data = b.landing(a.recv, a.count*a.dt.Size(), a.dt)
	return data, c.unpackVector(a.recv, a.count, a.dt, data)
}

// bcastTree broadcasts through the two-level tree, pipelined in segBytes
// segments (0: whole). On the one-cluster view the leader level has the
// root alone, and the tree is the classic binomial one: latency O(log n).
func (c *Comm) bcastTree(b *schedBuilder, ct *commTopo, a collArgs, segBytes int) func() {
	data, fin := c.bcastStaging(b, a)
	c.bcastTreeRounds(b, ct, data, a.root, segBytes)
	return fin
}

// reduceTreeRounds appends the reduction along the reversed two-level
// tree: every rank folds its children's partials into its accumulator
// (intra-cluster children first, so the single backbone message carries a
// fully reduced cluster contribution) and forwards one message to its
// parent. Returns the accumulator, complete at the root.
func (c *Comm) reduceTreeRounds(b *schedBuilder, ct *commTopo, a collArgs, root int) []byte {
	acc := b.loadAcc(a.send, a.recv, a.count, a.dt)
	parent, children := c.twoLevelTree(ct, root, len(acc))
	b.treeReduce(parent, children, acc, a.count, a.dt, a.op)
	return acc
}

// reduceTree: two-level reduction to root.
func (c *Comm) reduceTree(b *schedBuilder, ct *commTopo, a collArgs) func() {
	acc := c.reduceTreeRounds(b, ct, a, a.root)
	if c.myRank != a.root {
		return nil
	}
	return c.unpackVector(a.recv, a.count, a.dt, acc)
}

// allreduceTree is the two-level Allreduce in the leader-level shape the
// backbone's LogGP numbers price lower (leaderTree). Tree: reduce to rank 0
// up the two-level tree and broadcast back down it — one partial per cluster
// inbound, the result outbound, two crossings one after the other. On the
// one-cluster view (the flat Allreduce) it takes the tree without
// consulting leaderTree and broadcasts unsegmented: the binomial reduce to
// rank 0 and broadcast back. Exchange: each cluster reduces to its leader,
// the leaders swap their partials in one all-pairs round — one crossing,
// L−1 sends per leader — and every leader folds them in cluster order, so
// every rank gets the same bits, then broadcasts inside its cluster.
func (c *Comm) allreduceTree(b *schedBuilder, ct *commTopo, a collArgs) func() {
	if one := ct.nClusters == 1; one || !c.leaderTree(ct.groupView, a.count*a.dt.Size()).exchange {
		acc := c.reduceTreeRounds(b, ct, a, 0)
		seg := 0
		if !one {
			seg = c.bcastSegment(len(acc))
		}
		c.bcastTreeRounds(b, ct, acc, 0, seg)
		return c.unpackVector(a.recv, a.count, a.dt, acc)
	}
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	acc := b.loadAcc(a.send, a.recv, a.count, a.dt)
	parent, children := binomialOver(members, leaderPos, myPos)
	b.treeReduce(parent, children, acc, a.count, a.dt, a.op)
	if parent < 0 {
		in := b.exchange(ct.leaders, ct.myCluster, func(int) int { return len(acc) }, func(int) []byte { return acc })
		b.reduceInOrder(acc, ct.myCluster, len(in), func(di int) []byte { return in[di] }, a.count, a.dt, a.op)
		b.endRound()
	}
	b.treeBcast(parent, children, acc)
	return c.unpackVector(a.recv, a.count, a.dt, acc)
}

// gatherStaged gathers via cluster-leader staging: members send their
// block to their cluster's operation leader (the root stands in for its
// own cluster), each leader concatenates its cluster's blocks in rank
// order and ships one bundle to the root over the backbone. On the
// one-cluster view the root is the only leader: every member ships its
// block straight to it.
func (c *Comm) gatherStaged(b *schedBuilder, ct *commTopo, a collArgs) func() {
	sz := a.count * a.dt.Size()
	ex := a.dt.Extent()
	leader := ct.leaders[ct.myCluster]
	if ct.myCluster == ct.clusterOf[a.root] {
		leader = a.root
	}
	mine := b.packed(a.send, a.count, a.dt)
	if c.myRank != leader {
		b.send(leader, mine)
		return nil
	}
	bundle := b.gatherBundle(b.stage(len(ct.clusters[ct.myCluster])*sz), ct.clusters[ct.myCluster], c.myRank, mine)
	if c.myRank != a.root {
		b.send(a.root, bundle)
		return nil
	}

	// Root: one bundle per remote cluster leader, scattered to each
	// member's slot in recvBuf at completion.
	remote := make([][]byte, ct.nClusters)
	for _, di := range ct.remote {
		remote[di] = b.stage(len(ct.clusters[di]) * sz)
		b.recv(ct.leaders[di], remote[di])
	}
	b.endRound()
	return func() {
		place := func(di int, bun []byte) {
			for i, m := range ct.clusters[di] {
				UnpackBuf(a.recv[m*a.count*ex:], a.count, a.dt, bun[i*sz:(i+1)*sz])
			}
		}
		place(ct.myCluster, bundle)
		for _, di := range ct.remote {
			c.p.M.Charge(c.p.memTime(len(remote[di])))
			place(di, remote[di])
		}
	}
}

// allgatherBundles: intra-cluster gather to the leader, a direct bundle
// exchange among leaders — L·(L−1) backbone messages, one per directed
// leader pair — then an intra-cluster broadcast of the fully assembled
// vector.
func (c *Comm) allgatherBundles(b *schedBuilder, ct *commTopo, a collArgs) func() {
	sz := a.count * a.dt.Size()
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	mine := b.packed(a.send, a.count, a.dt)
	// The packed world vector, comm-rank order. mine is read (gathered or
	// sent) before anything lands in it, so it may be a block of a.recv.
	full := b.landing(a.recv, c.Size()*sz, a.dt)

	if myPos == leaderPos {
		bundle := b.gatherBundle(b.stage(len(members)*sz), members, c.myRank, mine)
		bundles := b.exchange(ct.leaders, ct.myCluster,
			func(di int) int { return len(ct.clusters[di]) * sz },
			func(int) []byte { return bundle })
		b.endRound()
		bundles[ct.myCluster] = bundle
		for di, bun := range bundles {
			for i, m := range ct.clusters[di] {
				b.copyStep(full[m*sz:(m+1)*sz], bun[i*sz:(i+1)*sz])
			}
		}
		b.endRound()
	} else {
		b.send(members[leaderPos], mine)
		b.endRound()
	}
	parent, children := binomialOver(members, leaderPos, myPos)
	b.treeBcast(parent, children, full)
	return c.unpackVector(a.recv, c.Size()*a.count, a.dt, full)
}

// ---- Two-level ring compilers ----
//
// The bandwidth-optimal rings (phases.go) run *inside* each cluster, where
// every hop rides the fast fabric; the slow backbone still carries exactly
// one leader-level exchange. A flat ring on a cluster-of-clusters would be
// the worst of both worlds: with interleaved rank placement every ring hop
// crosses the backbone, so the ring's 2(n−1) rounds each pay the slow
// link. On the one-cluster view the leader phases are vacuous and are
// skipped: what remains is the flat ring, 2·(n−1) latency rounds but only
// 2·(n−1)/n of the vector on each link.

// allreduceRing is the two-level ring allreduce: intra-cluster ring
// reduce-scatter, chunk gather to the cluster leader, a single binomial
// leader exchange over the backbone (reduce to cluster 0's leader, result
// broadcast back to the leaders), then a chunk scatter and intra-cluster
// ring allgather. Each fast link carries ~2·(m−1)/m of the vector instead
// of the binomial phases' log(m) full copies; the backbone still sees one
// vector per cluster per direction.
func (c *Comm) allreduceRing(b *schedBuilder, ct *commTopo, a collArgs) func() {
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	es := a.dt.Size()
	acc := b.loadAcc(a.send, a.recv, a.count, a.dt)
	bounds := splitBounds(a.count, len(members))
	chunk := func(i int) []byte { return acc[bounds[i]*es : bounds[i+1]*es] }

	// Member at position i ends up holding the cluster-reduced chunk i.
	b.ringRSRounds(members, myPos, acc, bounds, a.dt, a.op)
	if ct.nClusters > 1 {
		b.leaderParts(members, myPos, members[leaderPos], true, chunk)
		if myPos == leaderPos {
			parent, children := binomialOver(ct.leaders, 0, ct.myCluster)
			b.treeReduce(parent, children, acc, a.count, a.dt, a.op)
			b.treeBcast(parent, children, acc)
			b.endRound()
		}
		b.leaderParts(members, myPos, members[leaderPos], false, chunk)
	}
	b.ringAGRounds(members, myPos, acc, bounds, es)
	return c.unpackVector(a.recv, a.count, a.dt, acc)
}

// reduceScatterRing is the two-level ring reduce-scatter (a.count is the
// per-rank block): intra-cluster ring reduce-scatter of the full vector
// (in m near-equal chunks), chunk gather to the leader, then a leader
// pairwise bundle exchange in which cluster X ships cluster Y exactly the
// blocks Y's members will keep — |Y|·blockSize bytes per directed leader
// pair instead of the full vector — and finally each leader scatters the
// globally reduced block to its member. Bundle layout from X to Y: Y's
// members' blocks in ascending member order. On the one-cluster view the
// m chunks are the n blocks and each rank already owns its own after the
// ring — no root bottleneck, no full-vector broadcast.
func (c *Comm) reduceScatterRing(b *schedBuilder, ct *commTopo, a collArgs) func() {
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	es := a.dt.Size()
	sz := a.count * es
	total := a.count * c.Size()
	acc := b.loadAcc(a.send, nil, total, a.dt) // the whole vector; a.recv is one block of it
	bounds := splitBounds(total, len(members))
	chunk := func(i int) []byte { return acc[bounds[i]*es : bounds[i+1]*es] }
	block := func(r int) []byte { return acc[r*sz : (r+1)*sz] }

	b.ringRSRounds(members, myPos, acc, bounds, a.dt, a.op)
	if ct.nClusters > 1 {
		b.leaderParts(members, myPos, members[leaderPos], true, chunk)
		if myPos == leaderPos {
			// Stage one outbound bundle per remote cluster, then exchange
			// among leaders, folding each arriving bundle into my members'
			// blocks.
			out := make([][]byte, ct.nClusters)
			for _, di := range ct.remote {
				dm := ct.clusters[di]
				out[di] = b.stage(len(dm) * sz)
				for j, dr := range dm {
					b.copyStep(out[di][j*sz:(j+1)*sz], block(dr))
				}
			}
			b.endRound()
			in := b.exchange(ct.leaders, ct.myCluster,
				func(int) int { return len(members) * sz },
				func(di int) []byte { return out[di] })
			for _, di := range ct.remote {
				for j, mr := range members {
					b.reduce(block(mr), in[di][j*sz:(j+1)*sz], a.count, a.dt, a.op)
				}
			}
			b.endRound()
		}
		b.leaderParts(members, myPos, members[leaderPos], false, func(i int) []byte { return block(members[i]) })
	}
	return c.unpackVector(a.recv, a.count, a.dt, block(c.myRank))
}

// alltoallBundles is the two-level all-to-all: members ship their whole
// send matrix to the cluster leader, leaders pairwise-exchange per-cluster
// bundles (one message per directed leader pair, so each backbone link is
// crossed O(clusters) times instead of the pairwise rotation's O(n)), and
// each leader scatters the reassembled per-member receive vectors back.
// A leader stages all its outbound bundles in one round and exchanges them
// in the next, every inbound bundle (as long as the outbound) pre-posted.
//
// Bundle layout from cluster S to cluster D: blocks ordered by (source
// member index in S ascending, destination member index in D ascending).
func (c *Comm) alltoallBundles(b *schedBuilder, ct *commTopo, a collArgs) func() {
	n := c.Size()
	sz := a.count * a.dt.Size()
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	isLeader := myPos == leaderPos

	// mats[i] is member i's dense send matrix, vec[i] its dense receive
	// vector in source-rank order; members hold only their own pair.
	mats := make([][]byte, len(members))
	vec := make([][]byte, len(members))
	mats[myPos], vec[myPos] = b.packed(a.send, n*a.count, a.dt), b.landing(a.recvApart(), n*sz, a.dt)
	if isLeader {
		for i := range members {
			if i != myPos {
				mats[i], vec[i] = b.stage(n*sz), b.stage(n*sz)
			}
		}
	}

	b.leaderParts(members, myPos, members[leaderPos], true, func(i int) []byte { return mats[i] })
	if isLeader {
		out := make([][]byte, ct.nClusters)
		for _, di := range ct.remote {
			dm := ct.clusters[di]
			out[di] = b.stage(len(members) * len(dm) * sz)
			for k := range len(members) * len(dm) {
				dst := dm[k%len(dm)]
				b.copyStep(out[di][k*sz:(k+1)*sz], mats[k/len(dm)][dst*sz:(dst+1)*sz])
			}
		}
		b.endRound()
		in := b.exchange(ct.leaders, ct.myCluster, func(di int) int { return len(out[di]) }, func(di int) []byte { return out[di] })
		b.endRound()
		for j := range members {
			for i, src := range members {
				b.copyStep(vec[j][src*sz:(src+1)*sz], mats[i][members[j]*sz:(members[j]+1)*sz])
			}
			for _, di := range ct.remote {
				for i, src := range ct.clusters[di] {
					blk := in[di][(i*len(members)+j)*sz : (i*len(members)+j+1)*sz]
					b.copyStep(vec[j][src*sz:(src+1)*sz], blk)
				}
			}
		}
		b.endRound()
	}
	b.leaderParts(members, myPos, members[leaderPos], false, func(i int) []byte { return vec[i] })
	return c.unpackVector(a.recv, n*a.count, a.dt, vec[myPos])
}
