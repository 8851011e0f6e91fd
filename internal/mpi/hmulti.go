package mpi

import "slices"

// Multi-leader two-level schedule compilers: the bandwidth-aggregation
// forms of Bcast/Allreduce/Allgather/Alltoall. The single-leader
// compilers in hcoll.go cross the backbone once per slow link — but they
// funnel that one crossing through one elected leader and therefore one
// gateway, leaving every other gateway of the cluster idle. These
// compilers spread the inter-cluster payload over the cluster's *leader
// set* (Hierarchy.Leaders: one co-leader per distinct gateway), so that
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
//   - Allreduce, Allgather and Alltoall are one pipelined bridge exchange
//     (phases.go): the traffic of an ordered pair is striped over the pair's
//     couples, every stripe crosses in eager-path chunks, every inbound
//     chunk is pre-posted beside the outbound sends. What differs is what
//     crosses and how it gets to and from the couples — the stages before
//     and after the crossing. Allreduce reduces up a binomial tree to the
//     primary leader, cuts the vector into one piece per cluster and crosses
//     twice, a reduce-scatter and an allgather, its data handed between the
//     primary and the couples (handOffStage); Allgather crosses once with
//     each cluster's bundle, which the members assemble among themselves;
//     Alltoall crosses once with each directed bundle, which the members
//     feed to the couples and the couples scatter, block by block. What
//     lands fans out inside the cluster from where it landed (fanOutStages).
//     The exchange is cut into slabs and the stages run skewed by a round
//     each (pipeline), bridge chunks as plain sends and everything inside the
//     cluster on the round's second lane: slab t crosses while the cluster
//     feeds slab t+1 and drains slab t-1.
//   - Bcast has one source, so it pipelines instead: shard k walks a chain of
//     clusters rotated by k, each hop a couple picked from the same table,
//     in segments eager on every network, and a cluster's holder hands each
//     segment to the members beside the path on the second lane of the round
//     that forwards it (see bcastMulti).
//
// Deadlock and FIFO discipline. Every rank emits the same global sequence
// of rounds — pipeline round t runs stage i on slab t-i — and inside a stage
// walks clusters, couples, members and pieces in the same ascending order.
// A round pre-posts all its receives before its first send; a send and its
// receive belong to the same stage and slab, so they sit in the round of the
// same index on both ranks; and what a stage sends of a slab, an earlier
// stage landed or folded in an earlier round. So a blocked send (a
// rendez-vous body waiting for its receive to be posted) waits only for its
// peer to reach the round it is in itself, and the peer's earlier rounds
// wait only for sends of earlier rounds: by induction over the round index
// nothing waits in a circle, with one slab — a phase a round, as the forms
// were before they were cut — or with many. The two lanes of a round do
// not change that: each lane's sends are issued in order, and the one thing
// a send on a lane can wait for is the same peer reaching the same round.
// All messages of a schedule share one tag and match FIFO per source: a
// directed pair that carries several — chunks of a stripe, slabs of a
// piece, transfers of different stages — sends and posts them in the same
// order because both ends enumerate identically and derive every length
// from the same commTopo, and because within a round a pair has sends on one
// lane only (bridge pairs plain, intra-cluster pairs aside) while a round
// ends only when both its lanes have. Empty pieces and stripes (a vector
// shorter than the cluster count, a slab past a short pair's last) are
// skipped on both ends.
//
// Only Bcast posts a receive later than the round its send is in — a sink
// matches what it was streamed when its own cycles are over, a path's last
// rank a segment late — and there the send must be eager, on a pair no other
// stream of the cycles uses: chainSegment sees to the first, bcastMulti
// checks the second.

// shardChain lays out shard k's inter-cluster relay chain over the clusters
// in visiting order (root cluster first, the rest rotated by k so each
// shard walks the machine in a different direction): the linear path of ranks
// it travels, the rank holding the shard in each cluster (the bridge-facing
// receiver), the rank it departs each non-terminal cluster from (the
// bridge-facing sender, on the path behind the holder when distinct — the
// holder itself when the clusters share no direct bridge), the gateway
// network it entered through, and the cluster it ends in. Each hop is a co-leader couple out of
// the pair's relay table, picked by the shard index so different shards ride
// different bridges when the pair offers several; where the clusters share no
// bridge the shard leaves from its current holder and the fabric routes it.
func (ct *commTopo) shardChain(root, k int) (path, holder, egress []int, via []string, last int) {
	holder, egress, via = make([]int, ct.nClusters), make([]int, ct.nClusters), make([]string, ct.nClusters)
	last = ct.clusterOf[root]
	holder[last], path, via[last] = root, []int{root}, ct.coLeader(last, k).Gateway
	var others []int
	for di := range egress {
		if egress[di] = -1; di != last {
			others = append(others, di)
		}
	}
	for i := range others {
		cj := others[(i+k)%len(others)]
		rs := ct.relays[last][cj]
		r := rs[k%len(rs)]
		if !r.direct {
			r.x = holder[last]
		} else if r.x != holder[last] {
			path = append(path, r.x)
		}
		egress[last], holder[cj], via[cj] = r.x, r.y, r.gw
		path, last = append(path, r.y), cj
	}
	return path, holder, egress, via, last
}

// bcastMulti broadcasts with the inter-cluster phase sharded
// across the leader sets. Shard k travels a linear relay path over the
// clusters — root cluster first, the rest rotated by k — where each
// bridge hop runs directly between the two co-leaders fronting a shared
// gateway (the shard reaches its cluster's bridge-facing egress in one
// fast-fabric hop first), so concurrent shards cross the machine in
// different directions over different gateways and every directed bridge
// pipe carries ~1/K of the payload. The path is pipelined in segments sized
// from the links (chainSegment), eager on every network, like the segmented
// single-leader form: each path rank forwards segment s while segment s+1 is
// still crossing the previous bridge. The members the path skipped get each
// segment from their cluster's holder — as eager segments, so the stream
// never blocks — on the second lane of the round that forwards it, while the
// holder's bridge drains; what cannot go then (a member the holder also feeds
// another shard's path) goes after the cycles, and an unsegmented shard ends
// in the path's last cluster by a whole-shard binomial tree from the terminal
// rank.
//
// Two details keep opposite directions of a shared bridge concurrently
// busy instead of ping-ponging: only path ranks take per-segment rounds
// (everyone else matches its segments in one deferred round after the
// cycles, buffered by the eager protocol in the meantime), and the
// path's *terminal* rank — the one rank with per-segment receives but no
// forwarding — takes its segments a cycle late, so its role as a sender
// of some other shard never blocks on arrivals. It does so only where the
// delay is free: its predecessor's sends must be eager (a whole shard
// above one segment may be a rendez-vous body, whose sender would wait for
// a receive posted after rounds that wait, in turn, for that sender) and
// must be the only stream of the cycles on that directed pair (a second
// one, received as it comes, would be matched first). Every rank emits its
// rounds in the same global (cycle, shard, path-position) order and
// every wait points to a strictly earlier position of that order, so the
// union of all waits is acyclic; repeated (src, dst) pairs match FIFO
// because both endpoints enumerate the cycles and the shard-ascending
// post phases identically.
func (c *Comm) bcastMulti(b *schedBuilder, ct *commTopo, a collArgs) func() {
	K := ct.widest
	data, fin := c.bcastStaging(b, a)
	bounds := splitBounds(len(data), K)
	members := ct.clusters[ct.myCluster]
	seg := c.chainSegment(ct, len(data))

	// My role on shard k's relay path and in its intra-cluster fan-out —
	// identical on every rank by construction.
	type shardPlan struct {
		pred, succ   int   // my path neighbors (-1 when absent / off-path)
		late         bool  // the path's last rank, my cluster's holder, posts its receives late
		termCluster  bool  // my cluster is the path's last stop
		sinks        []int // my cluster's members the path never touches
		streams      []bool
		holder       int // the shard's holder in my cluster
		lo, hi, nseg int
		gw           string
	}
	plans := make([]shardPlan, K)
	paths := make([][]int, K)
	maxSeg := 0
	for k := 0; k < K; k++ {
		pl := shardPlan{pred: -1, succ: -1, lo: bounds[k], hi: bounds[k+1]}
		if sz := pl.hi - pl.lo; sz > 0 {
			path, holder, egress, via, last := ct.shardChain(a.root, k)
			di := ct.myCluster
			pl.holder, pl.termCluster = holder[di], di == last
			pl.gw = via[di]
			if i := slices.Index(path, c.myRank); i >= 0 {
				if i > 0 {
					pl.pred = path[i-1]
				}
				if i+1 < len(path) {
					pl.succ = path[i+1]
				}
			}
			paths[k] = path
			for _, m := range members {
				if m != holder[di] && m != egress[di] {
					pl.sinks = append(pl.sinks, m)
				}
			}
			pl.nseg = 1
			if sz > 2*seg {
				pl.nseg = (sz + seg - 1) / seg
			}
			maxSeg = max(maxSeg, pl.nseg)
		}
		plans[k] = pl
	}
	// feeds reports whether x sends to y along the path of a shard other than k.
	feeds := func(k, x, y int) bool {
		for k2, path := range paths {
			if i := slices.Index(path, y); k2 != k && i > 0 && path[i-1] == x {
				return true
			}
		}
		return false
	}
	// A terminal rank may post its receives late only where that can neither
	// block its predecessor nor reorder a pair's streams: a whole shard
	// above one segment may be a rendez-vous body, which its sender waits
	// on, and two streams on one directed pair are matched in the order
	// they are sent — so a terminal rank whose predecessor also feeds it
	// another shard during the cycles takes its segments as they come.
	//
	// streams[i] says whether the holder hands the shard to sink i during the
	// cycles, by the same two rules: the segments must be eager, because a
	// sink matches them late — which a segment is, on every network
	// (chainSegment) — and the holder may feed that sink no other shard's
	// path: beside a plain root, a co-leader is sink of one shard and path of
	// the other, and gets the first after the cycles as it always did.
	for k := range plans {
		pl := &plans[k]
		if last := len(paths[k]) - 1; pl.termCluster && last > 0 {
			pl.late = (pl.nseg > 1 || pl.hi-pl.lo <= seg) && !feeds(k, paths[k][last-1], pl.holder)
		}
		pl.streams = make([]bool, len(pl.sinks))
		for i, sk := range pl.sinks {
			pl.streams[i] = pl.nseg > 1 && !feeds(k, pl.holder, sk)
		}
	}
	chunkOf := func(pl *shardPlan, s int) []byte {
		if lo := pl.lo + s*seg; pl.nseg > 1 {
			return data[lo:min(lo+seg, pl.hi)]
		}
		return data[pl.lo:pl.hi]
	}

	// Segment cycles along the relay paths. Shard by shard a path rank takes
	// segment s, a round, and passes it on, a round: across its bridge by a
	// plain send, and beside that, on the round's second lane, to a successor
	// in its own cluster and to the sinks its cluster's holder streams to. The
	// root takes nothing, so nothing separates its sends: one round per cycle.
	// A terminal rank that posts late takes segment s-1 in whichever round
	// comes next and hands on segment s-2 beside its next bridge send — a
	// segment and more behind its own sends, so that the two directions of its
	// bridge do not wait for each other (taken as they come: 130 ms for 1 MiB
	// instead of 60). Two more cycles flush the skew.
	var aside []step // what the next forwarding round carries on its second lane
	flush := func() {
		for _, st := range aside {
			b.sendAside(st.peer, st.buf)
		}
		aside = aside[:0]
		b.endRound()
	}
	for s := 0; s < maxSeg+2; s++ {
		sealed := len(b.sch.rounds)
		for k := range plans {
			pl := &plans[k]
			mine := c.myRank == pl.holder
			late := int(b2i(mine && pl.late))
			if r := s - late; pl.pred >= 0 && r >= 0 && r < pl.nseg {
				b.recv(pl.pred, chunkOf(pl, r))
				if late == 0 {
					b.endRound()
				}
			}
			for i, sk := range pl.sinks {
				if r := s - 2*late; mine && r >= 0 && r < pl.nseg && pl.streams[i] {
					aside = append(aside, step{peer: sk, buf: chunkOf(pl, r)})
				}
			}
			switch {
			case pl.succ < 0 || s >= pl.nseg:
				continue
			case ct.clusterOf[pl.succ] == ct.myCluster:
				aside = append(aside, step{peer: pl.succ, buf: chunkOf(pl, s)})
			default:
				b.onShard(k, pl.gw)
				b.send(pl.succ, chunkOf(pl, s))
			}
			if pl.pred >= 0 {
				flush()
			}
		}
		// A rank that forwarded nothing this cycle hands on now; one that did
		// seals what it took since, ahead of the round that hands it on.
		if len(b.sch.rounds) == sealed {
			flush()
		}
		b.endRound()
	}
	flush()
	// What the holders streamed during the cycles the sinks match now, in the
	// order it was sent: buffered by the eager protocol in the meantime.
	for s := 0; s < maxSeg+2; s++ {
		for k := range plans {
			pl := &plans[k]
			if r, i := s-2*int(b2i(pl.late)), slices.Index(pl.sinks, c.myRank); r >= 0 && r < pl.nseg && i >= 0 && pl.streams[i] {
				b.recv(pl.holder, chunkOf(pl, r))
			}
		}
	}
	b.endRound()

	// Post phase, serialized per shard, for what did not stream. The holder
	// sends the shard's segments to the members the path never touched, which
	// match them in the same round — so even a rendez-vous body blocks nobody.
	// An unsegmented shard ends in its last cluster by a whole-shard binomial
	// tree rooted at the terminal rank instead.
	//
	// FIFO safety: every rank's cycle rounds precede its post rounds and
	// the post phases run in ascending shard order on every rank, so any
	// directed pair that carries several streams (a path stream of one shard
	// plus a fan-out stream of another) sends and matches them in the same
	// global (cycle, then shard-ascending post) order.
	for k := range plans {
		pl := &plans[k]
		b.onShard(k, pl.gw)
		if pl.nseg == 1 && pl.termCluster {
			parent, children := binomialOver(members, slices.Index(members, pl.holder), slices.Index(members, c.myRank))
			b.treeBcast(parent, children, data[pl.lo:pl.hi])
		}
		for s := 0; s < pl.nseg && !(pl.nseg == 1 && pl.termCluster); s++ {
			for i, sk := range pl.sinks {
				switch {
				case c.myRank != pl.holder && c.myRank != sk || pl.streams[i]:
				case c.myRank == sk:
					b.recv(pl.holder, chunkOf(pl, s))
				default:
					b.send(sk, chunkOf(pl, s))
				}
			}
		}
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
// All of that is one pipeline. Slab s — a run of the vector, a piece of it
// for every cluster — is reduced up the tree, handed off, crosses, is handed
// in and folded, handed off again, crosses back and fans out, a stage a round
// — so the finished slab s crosses back in the round in which the partials
// of slab s+3 cross out, the bridges carry both without a gap between the
// phases, and the tree reduce, the hand-offs and the fan-out of the other
// slabs run beside them on the second lane. At 1 MiB on the bridged triangle
// that is 81 ms, five slabs of five 14 562 B chunks on each bridge, where the
// phases one after the other took 114 in 7 KiB chunks.
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
	es, myD := dt.Size(), ct.myCluster
	members, myPos, leaderPos := ct.clusterPos(c.myRank)
	leader := members[leaderPos]
	acc := b.loadAcc(a.send, a.recv, count, dt)
	parent, children := binomialOver(members, leaderPos, myPos)

	// A slab is a run of the vector, cut into one piece per cluster: at(j, s)
	// is what cluster j finishes of slab s — all of it where the clusters fold
	// the whole vector each. One slab is the whole vector and its pieces the
	// thirds of it; of a longer vector cluster j finishes every slab's j-th
	// part, so that what a slab needs reduced, crossed and fanned out is one
	// run of every rank's memory.
	inter := c.p.hier.Inter
	whole := float64(len(acc)) <= float64(ct.nClusters)*inter.LatencyUS*inter.BandwidthMBs*(1<<20)/1e6
	pieces := ct.nClusters
	if whole {
		pieces = 1
	}
	n, w := ct.slabbing(c.chunkBytes, es, func(_, _ int) int { return (count + pieces - 1) / pieces * es })
	slab := func(s int) (lo, hi int) { return min(s*pieces*w/es, count), min((s+1)*pieces*w/es, count) }
	at := func(j, s int) []byte {
		lo, hi := slab(s)
		if whole {
			return acc[lo*es : hi*es]
		}
		return acc[(lo+j*(hi-lo)/pieces)*es : (lo+(j+1)*(hi-lo)/pieces)*es]
	}
	// The other clusters' partials of my pieces land in part, slab s at s*w.
	part := make([][]byte, ct.nClusters)
	in := func(ci, s int) []byte { return b.lazily(&part[ci], n*w)[s*w:][:len(at(myD, s))] }

	// The binomial reduce to the primary runs slab by slab ahead of the
	// crossing. A rank sends up in the stage numbered by how many children it
	// has, which is after the last of them — a child of a binomial tree has
	// fewer — and its parent takes it in that stage: one round index at both
	// ends of a message, as a pair's FIFO asks.
	kids := func(r int) int {
		_, ch := binomialOver(members, leaderPos, slices.Index(members, r))
		return len(ch)
	}
	var stages []func(int)
	levels := 0
	for _, m := range members {
		if m != leader {
			levels = max(levels, kids(m)+1)
		}
	}
	for level := 0; level < levels; level++ {
		stages = append(stages, func(s int) {
			lo, hi := slab(s)
			for i := len(children) - 1; i >= 0 && hi > lo; i-- {
				if kids(children[i]) == level {
					b.fold(children[i], acc[lo*es:hi*es], hi-lo, dt, op)
				}
			}
			if parent >= 0 && len(children) == level && hi > lo {
				b.sendAside(parent, acc[lo*es:hi*es])
			}
		})
	}
	// Reduce-scatter: the primary folds every slab of the partials as its
	// last stripe is handed in.
	handIn := b.handOffStage(ct, c.myRank, leader, true, in)
	fold := func(s int) {
		handIn(s)
		mine := at(myD, s)
		if c.myRank != leader || len(mine) == 0 {
			return
		}
		b.reduceInOrder(mine, myD, ct.nClusters, func(di int) []byte { return in(di, s) }, len(mine)/es, dt, op)
	}
	stages = append(stages,
		b.handOffStage(ct, c.myRank, leader, false, at),
		b.bridgeStage(ct, c.myRank, c.chunkBytes, at, in),
		fold)
	// Allgather: my finished pieces to every cluster, theirs in place — slab s
	// as soon as it is folded, behind the partials still crossing. What every
	// primary folded whole has only to fan out.
	if !whole {
		home := func(_, s int) []byte { return at(myD, s) }
		stages = append(stages,
			b.handOffStage(ct, c.myRank, leader, false, home),
			b.bridgeStage(ct, c.myRank, c.chunkBytes, home, at))
	}
	b.pipeline(n, append(stages, b.fanOutStages(ct, c.myRank, leader, func(ci, s int) []byte {
		if whole && ci != myD {
			return nil
		}
		return at(ci, s)
	})...)...)
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
	mine := b.packed(a.send, a.count, a.dt)
	// bundle[di]: cluster di's blocks in member order, on every rank. A
	// cluster of consecutive ranks has them in its stretch of the receive
	// vector, so on a dense type the bundle lands right there — unless that
	// is the send buffer, whose block mine is still being read (sent, and
	// copied to its slot) while the others land: recvApart.
	recv, bundle := a.recvApart(), make([][]byte, ct.nClusters)
	for di, cl := range ct.clusters {
		var at []byte
		if cl[len(cl)-1]-cl[0] == len(cl)-1 {
			at = recv[min(cl[0]*sz, len(recv)):]
		}
		bundle[di] = b.landing(at, len(cl)*sz, a.dt)
	}
	for _, m := range members {
		if m != c.myRank {
			b.send(m, mine)
		}
	}
	home := b.gatherBundle(bundle[ct.myCluster], members, c.myRank, mine)

	n, w := ct.slabbing(c.chunkBytes, 1, func(ci, _ int) int { return len(ct.clusters[ci]) * sz })
	landed := func(ci, s int) []byte {
		if ci == ct.myCluster {
			return nil
		}
		return cut(bundle[ci], w, s)
	}
	b.pipeline(n, append([]func(int){
		b.bridgeStage(ct, c.myRank, c.chunkBytes, func(_, s int) []byte { return cut(home, w, s) }, landed)},
		b.fanOutStages(ct, c.myRank, c.myRank, landed)...)...)
	return func() {
		c.p.M.Charge(c.p.memTime(c.Size() * sz))
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
	mine := b.packed(a.send, n*a.count, a.dt)
	myRecv := b.landing(a.recvApart(), n*sz, a.dt)

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
		if m != c.myRank {
			b.recv(m, myRecv[m*sz:(m+1)*sz])
			b.send(m, mine[m*sz:(m+1)*sz])
		}
	}
	b.endRound()

	// The bundles cross slab by slab, three stages skewed by a round each.
	// Gather: each member feeds the pieces of its bundle slice to the
	// emissary whose stripe of the slab they fall in; an emissary assembles
	// its stripes in place in a bundle-sized buffer. Scatter: every inbound
	// stripe's block pieces go straight to their final ranks; destinations
	// land them in receive-vector position, offset by where the stripe
	// boundary cut the block.
	n, w := ct.slabbing(c.chunkBytes, 1, func(ci, cj int) int { return len(ct.clusters[ci]) * len(ct.clusters[cj]) * sz })
	// bundle(cl) is the bundle to or from cluster cl on a rank that carries a
	// stripe of it: both are my cluster's size times the other's.
	bundleOut, bundleIn := make([][]byte, ct.nClusters), make([][]byte, ct.nClusters)
	bundle := func(of [][]byte, cl int) []byte {
		return b.lazily(&of[cl], len(members)*len(ct.clusters[cl])*sz)
	}
	gather := func(s int) {
		for _, cj := range ct.remote {
			rs := ct.relays[myD][cj]
			lj := len(ct.clusters[cj])
			for p, r := range rs {
				plo, phi := slabSpan(len(members)*lj*sz, w, s, len(rs), p)
				for blo := plo - plo%max(lj*sz, 1); blo < phi; blo += lj * sz {
					i, lo, hi := blo/(lj*sz), max(blo, plo), min(blo+lj*sz, phi)
					switch {
					case r.x == c.myRank && members[i] == c.myRank:
						b.copyStep(bundle(bundleOut, cj)[lo:hi], out[cj][lo-i*lj*sz:hi-i*lj*sz])
					case r.x == c.myRank:
						b.recv(members[i], bundle(bundleOut, cj)[lo:hi])
					case members[i] == c.myRank:
						b.sendAside(r.x, out[cj][lo-i*lj*sz:hi-i*lj*sz])
					}
				}
			}
		}
	}
	scatter := func(s int) {
		for _, ci := range ct.remote {
			rs := ct.relays[ci][myD]
			sm := ct.clusters[ci]
			for p, r := range rs {
				plo, phi := slabSpan(len(sm)*len(members)*sz, w, s, len(rs), p)
				fromMe := r.y == c.myRank
				for blo := plo - plo%max(sz, 1); blo < phi; blo += sz {
					srcR, dst := sm[blo/sz/len(members)], members[blo/sz%len(members)]
					lo, hi := max(blo, plo), min(blo+sz, phi)
					dstBuf := myRecv[srcR*sz+(lo-blo) : srcR*sz+(hi-blo)]
					switch {
					case fromMe && dst == c.myRank:
						b.copyStep(dstBuf, bundleIn[ci][lo:hi])
					case fromMe:
						b.sendAside(dst, bundleIn[ci][lo:hi])
					case dst == c.myRank:
						b.recv(r.y, dstBuf)
					}
				}
			}
		}
	}
	b.pipeline(n, gather,
		b.bridgeStage(ct, c.myRank, c.chunkBytes, func(cj, s int) []byte { return cut(bundle(bundleOut, cj), w, s) },
			func(ci, s int) []byte { return cut(bundle(bundleIn, ci), w, s) }),
		scatter)
	return c.unpackVector(a.recv, c.Size()*a.count, a.dt, myRecv)
}
