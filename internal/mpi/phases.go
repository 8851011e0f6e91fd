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
