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

// posIn returns r's index within members (-1 when absent).
func posIn(members []int, r int) int {
	for i, m := range members {
		if m == r {
			return i
		}
	}
	return -1
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
// child's partial is pre-posted in a single round and folded in as listed,
// then one message carries the result to the parent. acc is complete at
// the root afterwards.
func (b *schedBuilder) treeReduce(parent int, children []int, acc []byte, count int, dt Datatype, op Op) {
	for i := len(children) - 1; i >= 0; i-- {
		part := b.stage(len(acc))
		b.recv(children[i], part)
		b.reduce(acc, part, count, dt, op)
	}
	b.endRound()
	if parent >= 0 {
		b.send(parent, acc)
		b.endRound()
	}
}

// gatherBundle appends the leader's side of a block gather: every other
// member's block lands, in member order, in one staging bundle (the
// leader's own block by local copy). Members send with a plain b.send.
func (b *schedBuilder) gatherBundle(members []int, me int, mine []byte) []byte {
	sz := len(mine)
	bundle := b.stage(len(members) * sz)
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

// gatherParts appends one round converging per-member buffers on the
// leader: the member at position i ships part(i), the leader lands every
// other position's part in place.
func (b *schedBuilder) gatherParts(members []int, myPos, leader int, part func(pos int) []byte) {
	if members[myPos] != leader {
		b.send(leader, part(myPos))
	} else {
		for i, m := range members {
			if i != myPos {
				b.recv(m, part(i))
			}
		}
	}
	b.endRound()
}

// scatterParts is gatherParts reversed: the leader ships part(i) to the
// member at position i, which lands it in its own part.
func (b *schedBuilder) scatterParts(members []int, myPos, leader int, part func(pos int) []byte) {
	if members[myPos] != leader {
		b.recv(leader, part(myPos))
	} else {
		for i, m := range members {
			if i != myPos {
				b.send(m, part(i))
			}
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

// stripe returns part p of buf cut into n contiguous near-equal parts
// (splitBounds' rule, in bytes).
func stripe(buf []byte, n, p int) []byte {
	return buf[p*len(buf)/n : (p+1)*len(buf)/n]
}

// bridgeExchange appends the inter-cluster round of the multi-leader forms.
// For every ordered cluster pair the traffic crosses between the pair's
// co-leader couples (ct.relays), stripe p of it on couple p, all pairs in
// one duplex round: every inbound chunk is pre-posted beside the outbound
// sends, so both directions of a bridge are busy at once and concurrent
// bodies cannot deadlock. out(cj) is what this rank's cluster ships to
// cluster cj, in(ci) the buffer cluster ci's traffic lands in; a rank is
// asked only for the clusters it carries a stripe of, and both ends of a
// couple cut the same length the same way. Empty stripes are skipped on
// both ends.
//
// A stripe longer than two segments crosses as seg-byte eager chunks, not
// as one rendez-vous body. The chunks complete locally at the sender and
// skip the handshake — and a rendez-vous body between the two ends of a
// bridge is striped by ch_mad over the pair's second rail, the detour over
// the two other bridges, which a collective that already fills every bridge
// pays for twice: a 1 MiB Allreduce on the bridged triangle takes 148 ms and
// moves 2.1 MB per bridge as whole pieces, 114 ms and 1.4 MB as chunks. Up
// to two segments a stripe ships whole: it is still one eager message on a
// bridge, and measured 2-5 % faster than two.
func (b *schedBuilder) bridgeExchange(ct *commTopo, me, seg int, out, in func(cl int) []byte) {
	chunks := func(buf []byte, emit func(chunk []byte)) {
		if len(buf) <= 2*seg {
			if len(buf) > 0 {
				emit(buf)
			}
			return
		}
		for off := 0; off < len(buf); off += seg {
			emit(buf[off:min(off+seg, len(buf))])
		}
	}
	gw := ""
	for _, ci := range ct.remote {
		rs := ct.relays[ci][ct.myCluster]
		for p, r := range rs {
			if r.y == me {
				chunks(stripe(in(ci), len(rs), p), func(chunk []byte) { b.recv(r.x, chunk) })
				gw = r.gw
			}
		}
	}
	for _, cj := range ct.remote {
		rs := ct.relays[ct.myCluster][cj]
		for p, r := range rs {
			if r.x == me {
				chunks(stripe(out(cj), len(rs), p), func(chunk []byte) { b.send(r.y, chunk) })
				gw = r.gw
			}
		}
	}
	if gw != "" {
		b.lane(0, gw)
	}
	b.endRound()
}

// handOff appends the intra-cluster round that frames a bridge exchange on
// the forms whose data sits on one holder per cluster: outbound, the holder
// hands stripe p of buf(cl), its traffic to cluster cl, to couple p's x;
// inbound, couple p's y hands the stripe of buf(cl) it landed to the holder.
// The stripe has the same place in buf(cl) on both ends. A couple whose end
// is the holder moves nothing; empty stripes are skipped.
func (b *schedBuilder) handOff(ct *commTopo, me, holder int, inbound bool, buf func(cl int) []byte) {
	for _, cl := range ct.remote {
		rs := ct.relays[ct.myCluster][cl]
		if inbound {
			rs = ct.relays[cl][ct.myCluster]
		}
		for p, r := range rs {
			from, to := holder, r.x
			if inbound {
				from, to = r.y, holder
			}
			if from == to || me != from && me != to {
				continue
			}
			switch s := stripe(buf(cl), len(rs), p); {
			case len(s) == 0:
			case me == from:
				b.send(to, s)
			default:
				b.recv(from, s)
			}
		}
	}
	b.endRound()
}

// fanOut appends the intra-cluster broadcast that ends a multi-leader form:
// buf(ci), cluster ci's part of the result, reaches every member from where
// the exchange left it — stripe p on the y of couple p of (ci, my cluster),
// the own cluster's part whole on holder. The binomial trees of all these
// pieces are walked in lockstep, round t moving every tree's edges of stride
// 2^(k-1-t), so ceil(log2 m) rounds carry them all and a rank forwards one
// piece while another lands. A round waits only for edges of earlier rounds,
// so there is no cycle; pieces sharing a (sender, receiver) pair are listed
// in the same order on both ends. Empty pieces are skipped.
func (b *schedBuilder) fanOut(ct *commTopo, me, holder int, buf func(ci int) []byte) {
	members := ct.clusters[ct.myCluster]
	m, myPos := len(members), posIn(members, me)
	var roots []int
	var pieces [][]byte
	for ci := 0; ci < ct.nClusters; ci++ {
		if ci == ct.myCluster {
			roots, pieces = append(roots, posIn(members, holder)), append(pieces, buf(ci))
			continue
		}
		rs := ct.relays[ci][ct.myCluster]
		for p, r := range rs {
			roots, pieces = append(roots, posIn(members, r.y)), append(pieces, stripe(buf(ci), len(rs), p))
		}
	}
	mask := 1
	for mask < m {
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		for i, piece := range pieces {
			rel := (myPos - roots[i] + m) % m
			switch {
			case len(piece) == 0:
			case rel%(2*mask) == 0 && rel+mask < m:
				b.send(members[(myPos+mask)%m], piece)
			case rel%(2*mask) == mask:
				b.recv(members[(myPos-mask+m)%m], piece)
			}
		}
		b.endRound()
	}
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
		part := b.stage(len(blk(recvIdx)))
		b.recv(left, part)
		b.send(right, blk(sendIdx))
		b.reduce(blk(recvIdx), part, bounds[recvIdx+1]-bounds[recvIdx], dt, op)
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

// unpackVector is the completion closure of the whole-vector operations:
// one memcpy charge, then the packed count-element vector lands in dst.
func (c *Comm) unpackVector(dst []byte, count int, dt Datatype, packed []byte) func() {
	return func() {
		c.p.M.Compute(c.p.memTime(len(packed)))
		UnpackBuf(dst, count, dt, packed)
	}
}

// unpackBlocks is the completion closure of the per-rank-block operations
// (Allgather, Alltoall): one memcpy charge, then block r of the packed
// communicator-rank-ordered vector lands in recvBuf's slot r.
func (c *Comm) unpackBlocks(recvBuf []byte, count int, dt Datatype, packed []byte) func() {
	sz, ex := count*dt.Size(), dt.Extent()
	return func() {
		c.p.M.Compute(c.p.memTime(len(packed)))
		for r := 0; r < c.Size(); r++ {
			UnpackBuf(recvBuf[r*count*ex:], count, dt, packed[r*sz:(r+1)*sz])
		}
	}
}
