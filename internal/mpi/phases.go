package mpi

// Phase builders: the handful of communication patterns every collective
// compiler (collectives.go, hcoll.go, hmulti.go) is composed from, each
// written once over an explicit member list in communicator ranks. A
// builder only appends steps to the schedule under construction; which
// members, which tree and which buffers is the compiler's business, so the
// same builder serves a whole communicator, one cluster, or the leader
// level of a hierarchy.
//
// Step order inside a round is part of the schedule (receives are posted,
// and sends injected, in listed order), so the builders fix it: children
// are received from smallest stride first and sent to largest stride
// first, member and cluster lists are walked ascending.

import (
	"math"
	"math/bits"
	"slices"
)

// binomialOver computes a binomial tree over an explicit rank list rooted
// at position rootPos, returning myPos's parent (-1 at the root) and
// children (largest stride first).
func binomialOver(members []int, rootPos, myPos int) (parent int, children []int) {
	parent = -1
	n := len(members)
	rel := (myPos - rootPos + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent = members[(rel-mask+rootPos)%n]
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			children = append(children, members[(rel+mask+rootPos)%n])
		}
		mask >>= 1
	}
	return parent, children
}

// treeBcast appends one tree position's share of a broadcast of buf: a
// receive round from the parent (none at the root), then the fan-out
// sends, left in the open round for the caller to seal.
func (b *schedBuilder) treeBcast(parent int, children []int, buf []byte) {
	if parent >= 0 {
		b.recv(parent, buf)
		b.endRound()
	}
	for _, ch := range children {
		b.send(ch, buf)
	}
}

// treeReduce appends one tree position's share of a reduction into acc
// (count elements of dt, pre-loaded with this rank's contribution): every
// child's partial is folded in a single round, as listed, then one message
// carries the result to the parent. acc is complete at the root afterwards.
func (b *schedBuilder) treeReduce(parent int, children []int, acc []byte, count int, dt Datatype, op Op) {
	for i := len(children) - 1; i >= 0; i-- {
		b.fold(children[i], acc, count, dt, op)
	}
	b.endRound()
	if parent >= 0 {
		b.send(parent, acc)
		b.endRound()
	}
}

// reduceInOrder appends the reduction of n clusters' partials, part(di) being
// cluster di's, into mine, the partial of cluster me: p0 op … op p(n−1), in
// that order on every cluster, so that every cluster ends on the same bits
// whatever the op rounds. The partials before mine fold into part(0), and an
// op being commutative, mine op that prefix has the bits of the prefix op
// mine.
func (b *schedBuilder) reduceInOrder(mine []byte, me, n int, part func(di int) []byte, count int, dt Datatype, op Op) {
	run := mine
	if me > 0 {
		run = part(0)
	}
	for di := 1; di < n; di++ {
		if di == me {
			b.reduce(mine, run, count, dt, op)
			run = mine
		} else {
			b.reduce(run, part(di), count, dt, op)
		}
	}
}

// gatherBundle appends the leader's side of a block gather: every other
// member's block lands, in member order, in bundle (the leader's own block
// by local copy). Members send with a plain b.send.
func (b *schedBuilder) gatherBundle(bundle []byte, members []int, me int, mine []byte) []byte {
	sz := len(mine)
	for i, m := range members {
		slot := bundle[i*sz : (i+1)*sz]
		if m == me {
			b.copyStep(slot, mine)
			continue
		}
		b.recv(m, slot)
	}
	b.endRound()
	return bundle
}

// leaderParts appends one round moving per-member buffers between the
// members and their leader, part(i) being position i's: gathering, each
// member ships its own and the leader lands every other position's in place;
// scattering, the leader ships them and each member lands its own.
func (b *schedBuilder) leaderParts(members []int, myPos, leader int, gather bool, part func(pos int) []byte) {
	lead := members[myPos] == leader
	for i, peer := range members {
		if !lead {
			peer = leader
		}
		switch {
		case lead == (i == myPos):
		case lead == gather:
			b.recv(peer, part(i))
		default:
			b.send(peer, part(i))
		}
	}
	b.endRound()
}

// exchange appends the all-pairs exchange among peers (this rank is
// peers[me]): every inbound buffer, inLen(i) bytes from peer i, is
// pre-posted ahead of the sends of out(i), so concurrent rendez-vous
// bodies cannot deadlock. The round is left open — a caller may fold the
// arrivals in the same round — and the inbound buffers are returned
// indexed like peers (nil at me).
func (b *schedBuilder) exchange(peers []int, me int, inLen func(i int) int, out func(i int) []byte) [][]byte {
	in := make([][]byte, len(peers))
	for i, p := range peers {
		if i != me {
			in[i] = b.stage(inLen(i))
			b.recv(p, in[i])
		}
	}
	for i, p := range peers {
		if i != me {
			b.send(p, out(i))
		}
	}
	return in
}

// The pipelined bridge exchange: the inter-cluster round of the multi-leader
// forms with the intra-cluster rounds that frame it, cut into slabs so that
// a co-leader feeds and drains its fast fabric while its bridge is busy.
//
// For every ordered cluster pair the traffic crosses between the pair's
// co-leader couples (ct.relays). It is cut into slabs of w bytes and every
// slab is striped over the couples, stripe p on couple p; a stripe crosses as
// eager chunks, not as one rendez-vous body. The chunks complete locally at
// the sender and skip the handshake — and a rendez-vous body between the two
// ends of a bridge is striped by ch_mad over the pair's second rail, the
// detour over the two other bridges, which a collective that already fills
// every bridge pays for twice: a 1 MiB Allreduce on the bridged triangle took
// 148 ms and moved 2.1 MB per bridge as whole pieces, 114 ms and 1.4 MB as
// chunks.
//
// The sizes come from the links (§4.2.2: each network carries messages sized
// for it). A couple's chunk is the largest that stays eager on the bridge it
// crosses, capped by that bridge's pipeline segment (TCP: 14 562 B); a couple
// the fabric routes may ride any link of the hierarchy and takes the least of
// them all. A slab is about √(chunks of the longest pair) chunks per couple,
// so there are about as many slabs: the first feed and the last drain, the
// intra-cluster time no bridge round hides, grow with a slab, the rounds'
// hand-shakes with their number, and the square root balances the two. A
// pair of at most two chunks is one slab. Every input is on the Hierarchy or
// among the class thresholds MPI_Init installed on every rank alike, so every
// rank derives the same sizes and both ends of a couple cut the same chunks.
//
// A form is a list of stages — hand the outbound data to the couples, cross,
// hand on or fold what landed, fan out — and pipeline runs them skewed by one
// round each: round t carries slab t-i of stage i, so slab t crosses while
// slab t+1 is fed and slab t-1 drained. Bridge sends are plain sends and
// every intra-cluster send of a stage rides the round's second lane
// (sendAside), which is where the overlap comes from: the two threads of a
// co-leader drive its two networks at once. One slab is the unpipelined form:
// the stages then follow each other round by round, no round has two lanes,
// and the schedule is what it was before there were slabs.

// eagerBytes is the largest message that rides l without a rendez-vous: the
// threshold MPI_Init measured for l's device class, else l's own.
func (c *Comm) eagerBytes(l Link) int {
	if sp := c.p.classSwitch[l.Class]; sp > 0 {
		return sp
	}
	return l.SwitchBytes
}

// chunkBytes is couple r's chunk: the least pipeline segment and eager
// threshold of the bridge it crosses, or of every network for a couple the
// fabric routes.
func (c *Comm) chunkBytes(r relay) int {
	chunk := math.MaxInt
	for name, l := range c.p.hier.Nets {
		if !r.direct || name == r.gw {
			chunk = min(chunk, l.SegmentBytes, c.eagerBytes(l))
		}
	}
	return chunk
}

// chainSegment is the segment a multi-leader Bcast of n bytes cuts each of
// its shards into on the chains over the view's bridges: the LogGP optimum
// √(shard·o/(hops·G)), where the shard/s segments' overheads meet the hops·s·G
// the first segment takes to reach the chain's end, o and G being the
// largest over the networks of what a segment costs the CPUs at a link's two
// ends (both overheads and the device's handling) and of the time a byte
// takes: the TCP bridges' on the bridged triangle. It is never below the
// segment the single-leader forms cut, so a shard that ships whole there ships
// whole here, and never above the eager threshold of any network: bridges,
// fabrics and the holders' streams to their sinks.
func (c *Comm) chainSegment(ct *commTopo, n int) int {
	hi, o, g := math.MaxInt, 0.0, 0.0
	for _, l := range c.p.hier.Nets {
		hi, o, g = min(hi, c.eagerBytes(l)), max(o, l.DeliverUS-l.LatencyUS), max(g, l.ByteUS)
	}
	shard, hops := float64(n/ct.widest), float64(ct.nClusters-1)
	return min(hi, max(c.segmentBytes(), int(math.Sqrt(shard*o/(hops*g)))))
}

// slabbing cuts one exchange: n slabs of w bytes of every pair's traffic (the
// last ragged, pairs with less traffic run out earlier). The same on every
// rank: size(ci, cj) is what cluster ci ships to cluster cj, and the longest
// decides. w is about √(the longest pair's chunks) chunks on each couple of the
// pair that carries the most per chunk, in whole es-byte elements so that a
// fold may follow the slabs.
func (ct *commTopo) slabbing(chunk func(relay) int, es int, size func(ci, cj int) int) (n, w int) {
	longest, per := 0, 1
	for ci, row := range ct.relays {
		for cj, rs := range row {
			if ci != cj {
				longest, per = max(longest, size(ci, cj)), max(per, len(rs)*chunk(rs[0]))
			}
		}
	}
	k := max(1, int(math.Ceil(math.Sqrt(float64((longest+per-1)/per)))))
	w = (k*per + es - 1) / es * es
	return max(1, (longest+w-1)/w), w
}

// slabSpan returns where stripe p of n of slab s lies in a buffer of length
// l cut into slabs of w bytes (stripes by splitBounds' rule, in bytes).
func slabSpan(l, w, s, n, p int) (lo, hi int) {
	a, z := min(s*w, l), min((s+1)*w, l)
	return a + p*(z-a)/n, a + (p+1)*(z-a)/n
}

// cut returns slab s of a buffer cut into slabs of w bytes, stripe part p of a
// slab striped n ways.
func cut(buf []byte, w, s int) []byte { return buf[min(s*w, len(buf)):min((s+1)*w, len(buf))] }

func stripe(buf []byte, n, p int) []byte { return buf[p*len(buf)/n : (p+1)*len(buf)/n] }

// pipeline appends the rounds of n slabs through the stages: round t runs
// stage i on slab t-i. A nil stage is a round of skew.
func (b *schedBuilder) pipeline(n int, stages ...func(s int)) {
	for t := 0; t < n+len(stages)-1; t++ {
		for i, stage := range stages {
			if s := t - i; stage != nil && s >= 0 && s < n {
				stage(s)
			}
		}
		b.endRound()
	}
}

// bridgeStage is the crossing: all pairs in one duplex round, every inbound
// chunk pre-posted beside the outbound sends, so both directions of a bridge
// are busy at once and concurrent bodies cannot deadlock. out(cj) is what
// this rank's cluster ships to cluster cj, in(ci) the buffer cluster ci's
// traffic lands in, of slab s; a rank is asked only for the clusters it
// carries a stripe of, and both ends of a couple cut the same length the same
// way, in chunk(couple)-byte chunks. Empty stripes are skipped on both ends.
// The rounds are annotated with the gateway this rank fronts.
func (b *schedBuilder) bridgeStage(ct *commTopo, me int, chunk func(relay) int, out, in func(cl, s int) []byte) func(s int) {
	chunks := func(buf []byte, size int, emit func(chunk []byte)) {
		for off := 0; off < len(buf); off += size {
			emit(buf[off:min(off+size, len(buf))])
		}
	}
	return func(s int) {
		for _, cl := range ct.remote {
			from, to := ct.relays[cl][ct.myCluster], ct.relays[ct.myCluster][cl]
			for p, r := range from {
				if r.y == me {
					b.onShard(0, r.gw)
					chunks(stripe(in(cl, s), len(from), p), chunk(r), func(chunk []byte) { b.recv(r.x, chunk) })
				}
			}
			for p, r := range to {
				if r.x == me {
					b.onShard(0, r.gw)
					chunks(stripe(out(cl, s), len(to), p), chunk(r), func(chunk []byte) { b.send(r.y, chunk) })
				}
			}
		}
	}
}

// move appends this rank's end, if it has one, of an intra-cluster transfer
// of part between two ranks, the send on the round's second lane. An empty
// part, or one that is where it is going, moves nothing.
func (b *schedBuilder) move(me, from, to int, part []byte) {
	switch {
	case len(part) == 0 || from == to:
	case me == from:
		b.sendAside(to, part)
	case me == to:
		b.recv(from, part)
	}
}

// handOffStage is the intra-cluster stage that frames a crossing on the forms
// whose data sits on one holder per cluster: outbound, the holder hands
// stripe p of buf(cl, s), slab s of its traffic to cluster cl, to couple p's
// x; inbound, couple p's y hands the stripe it landed to the holder. The
// stripe has the same place in the slab on both ends.
func (b *schedBuilder) handOffStage(ct *commTopo, me, holder int, inbound bool, buf func(cl, s int) []byte) func(s int) {
	return func(s int) {
		for _, cl := range ct.remote {
			if rs := ct.relays[ct.myCluster][cl]; !inbound {
				for p, r := range rs {
					b.move(me, holder, r.x, stripe(buf(cl, s), len(rs), p))
				}
				continue
			}
			rs := ct.relays[cl][ct.myCluster]
			for p, r := range rs {
				b.move(me, r.y, holder, stripe(buf(cl, s), len(rs), p))
			}
		}
	}
}

// fanOutStages are the intra-cluster broadcast that ends a multi-leader
// form, one stage per level of a binomial tree: buf(ci, s), slab s of cluster
// ci's part of the result, reaches every member from where the exchange left
// it — stripe p on the y of couple p of (ci, my cluster), the own cluster's
// part on holder. The trees of all these pieces are walked in lockstep, level
// t moving every tree's edges of stride 2^(k-1-t), so ceil(log2 m) stages
// carry them all and a rank forwards one piece while another lands. A level
// waits only for edges of the level before, a round earlier, so there is no
// cycle; pieces sharing a (sender, receiver) pair are listed in the same
// order on both ends. Empty pieces are skipped.
func (b *schedBuilder) fanOutStages(ct *commTopo, me, holder int, buf func(ci, s int) []byte) (stages []func(s int)) {
	members := ct.clusters[ct.myCluster]
	m := len(members)
	for mask := 1 << bits.Len(uint(m-1)) >> 1; mask > 0; mask >>= 1 {
		stages = append(stages, func(s int) {
			level := func(root int, piece []byte) {
				for rel, at := 0, slices.Index(members, root); rel+mask < m; rel += 2 * mask {
					b.move(me, members[(at+rel)%m], members[(at+rel+mask)%m], piece)
				}
			}
			for ci := 0; ci < ct.nClusters; ci++ {
				if ci == ct.myCluster {
					level(holder, buf(ci, s))
					continue
				}
				rs := ct.relays[ci][ct.myCluster]
				for p, r := range rs {
					level(r.y, stripe(buf(ci, s), len(rs), p))
				}
			}
		})
	}
	return stages
}

// splitBounds partitions count elements into m contiguous near-equal
// blocks: block i spans elements [bounds[i], bounds[i+1]).
func splitBounds(count, m int) []int {
	bounds := make([]int, m+1)
	for i := 0; i <= m; i++ {
		bounds[i] = i * count / m
	}
	return bounds
}

// ringRSRounds appends the ring reduce-scatter over members: m−1 rounds,
// each forwarding one partially reduced block to the right neighbor while
// folding the block arriving from the left into acc (the packed full
// vector, pre-loaded with this rank's contribution). Afterwards acc's
// block myPos holds the complete reduction over all members. The block
// indexing is shifted so each member finishes owning its *own* position's
// block, which is what ReduceScatter semantics need. Requires a
// commutative op (all predefined ops are).
func (b *schedBuilder) ringRSRounds(members []int, myPos int, acc []byte, bounds []int, dt Datatype, op Op) {
	m := len(members)
	if m < 2 {
		return
	}
	es := dt.Size()
	right := members[(myPos+1)%m]
	left := members[(myPos-1+m)%m]
	blk := func(i int) []byte { return acc[bounds[i]*es : bounds[i+1]*es] }
	for s := 0; s < m-1; s++ {
		sendIdx := (myPos - s - 1 + 2*m) % m
		recvIdx := (myPos - s - 2 + 2*m) % m
		b.fold(left, blk(recvIdx), bounds[recvIdx+1]-bounds[recvIdx], dt, op)
		b.send(right, blk(sendIdx))
		b.endRound()
	}
}

// ringAGRounds appends the ring allgather over members: m−1 rounds
// circulating the completed blocks, starting from each member owning block
// myPos (the ring reduce-scatter postcondition). Receives land directly in
// data's block slots.
func (b *schedBuilder) ringAGRounds(members []int, myPos int, data []byte, bounds []int, es int) {
	m := len(members)
	if m < 2 {
		return
	}
	right := members[(myPos+1)%m]
	left := members[(myPos-1+m)%m]
	blk := func(i int) []byte { return data[bounds[i]*es : bounds[i+1]*es] }
	for s := 0; s < m-1; s++ {
		sendIdx := (myPos - s + m) % m
		recvIdx := (myPos - s - 1 + 2*m) % m
		b.recv(left, blk(recvIdx))
		b.send(right, blk(sendIdx))
		b.endRound()
	}
}

// unpackVector is the completion closure of the operations that finish in
// one packed vector: one memcpy charge, then its count elements land in dst.
// For a per-rank-block operation (Allgather, Alltoall) count covers every
// rank's block, so block r lands in rank r's slot. The flat Allgather and
// Alltoall unpack theirs uncharged: their one local copy is a charged step.
func (c *Comm) unpackVector(dst []byte, count int, dt Datatype, packed []byte) func() {
	return func() {
		c.p.M.Charge(c.p.memTime(len(packed)))
		UnpackBuf(dst, count, dt, packed)
	}
}
