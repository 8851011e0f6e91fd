package mpi

// collCtx is the communicator's paired context (ctx+1). Every collective
// compiles into a schedule (schedule.go) whose messages carry a unique
// per-operation tag (nbc.go) on it, so none can collide with user
// point-to-point traffic.
func (c *Comm) collCtx() int { return c.ctx + 1 }

// Every blocking collective below compiles the schedule its nonblocking
// twin does and runs it on the calling thread, or queued behind pending
// work when there is some (submit): the schedule compilers in this file,
// hcoll.go and hmulti.go hold the only algorithm bodies and the collForms
// table (forms.go) the only place they are bound to an operation, so a new
// algorithm is a new compiler plus a table row and nothing else.

// errOf is the outcome of a collective its caller waited for.
func errOf(_ *CollRequest, err error) error { return err }

// Barrier blocks until all members have entered it (MPI_Barrier).
func (c *Comm) Barrier() error { return errOf(c.barrier(true)) }

// Bcast broadcasts count elements of dt from root to every member
// (MPI_Bcast), compiled as one schedule: the flat binomial tree, the
// two-level tree, whole or pipelined in segments, or the multi-leader form
// whose shards walk chains of clusters over every bridge at once.
func (c *Comm) Bcast(buf []byte, count int, dt Datatype, root int) error {
	return errOf(c.bcast(buf, count, dt, root, true))
}

// Reduce combines count elements from every member's sendBuf with op,
// leaving the result in root's recvBuf (MPI_Reduce).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) error {
	return errOf(c.reduce(sendBuf, recvBuf, count, dt, op, root, true))
}

// Allreduce combines count elements from every member's sendBuf with op,
// leaving the result in every member's recvBuf (MPI_Allreduce), compiled
// as one schedule: a reduce to rank 0 chained with a broadcast, a two-level
// form whose cluster leaders exchange their partials, a ring, or the
// multi-leader sharded form.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	return errOf(c.allreduce(sendBuf, recvBuf, count, dt, op, true))
}

// Gather collects count elements from every member into root's recvBuf,
// ordered by rank (MPI_Gather). recvBuf needs size*count elements at root.
func (c *Comm) Gather(sendBuf []byte, recvBuf []byte, count int, dt Datatype, root int) error {
	return errOf(c.gather(sendBuf, recvBuf, count, dt, root, true))
}

// Allgather gathers count elements from each member into every member's
// recvBuf in rank order (MPI_Allgather).
func (c *Comm) Allgather(sendBuf []byte, recvBuf []byte, count int, dt Datatype) error {
	return errOf(c.allgather(sendBuf, recvBuf, count, dt, true))
}

// Alltoall sends a distinct count-element block to every member and
// receives one from each (MPI_Alltoall), compiled as one schedule: the flat
// pairwise rotation, the two-level leader-bundled exchange (one bundle per
// directed leader pair), or the multi-leader form whose co-leaders carry
// each directed cluster bundle over their own bridge.
func (c *Comm) Alltoall(sendBuf []byte, recvBuf []byte, count int, dt Datatype) error {
	return errOf(c.alltoall(sendBuf, recvBuf, count, dt, true))
}

// ---- Topology-blind schedule compilers ----
//
// The flat forms that are genuinely different algorithms from their
// two-level counterparts, not their one-cluster case (those — Bcast,
// Reduce, Allreduce, Gather, the rings — are compiled by hcoll.go on the
// one-cluster view): dissemination vs fan-in/fan-out, ring vs leader
// bundles, pairwise rotation vs leader bundles.

// barrierDissemination: ceil(log2 n) rounds of 0-byte exchanges.
func (c *Comm) barrierDissemination(b *schedBuilder, _ *commTopo, _ collArgs) func() {
	n := c.Size()
	for k := 1; k < n; k <<= 1 {
		b.recv((c.myRank-k+n)%n, nil)
		b.send((c.myRank+k)%n, nil)
		b.endRound()
	}
	return nil
}

// allgatherRing is the ring algorithm: n-1 rounds, each forwarding the
// block received in the previous round. The blocks land in place in the
// packed result (schedBuilder.landing); the send buffer is read only by the
// first round's copy, so it may be a block of a.recv.
func (c *Comm) allgatherRing(b *schedBuilder, _ *commTopo, a collArgs) func() {
	n := c.Size()
	sz := a.count * a.dt.Size()
	full := b.landing(a.recv, n*sz, a.dt)
	block := func(r int) []byte { return full[r*sz : (r+1)*sz] }
	right := (c.myRank + 1) % n
	left := (c.myRank - 1 + n) % n

	b.copyStep(block(c.myRank), b.packed(a.send, a.count, a.dt))
	b.endRound()
	for s := 0; s < n-1; s++ {
		b.recv(left, block((c.myRank-s-1+n)%n))
		b.send(right, block((c.myRank-s+n)%n))
		b.endRound()
	}
	return func() { UnpackBuf(a.recv, n*a.count, a.dt, full) }
}

// alltoallPairwise is the pairwise rotation: n rounds, exchanging with
// partners at increasing rank distance. Every round reads the send matrix,
// so the result lands in a.recv only when that is apart from it.
func (c *Comm) alltoallPairwise(b *schedBuilder, _ *commTopo, a collArgs) func() {
	n := c.Size()
	sz := a.count * a.dt.Size()
	vec, mat := b.landing(a.recvApart(), n*sz, a.dt), b.packed(a.send, n*a.count, a.dt)
	for step := 0; step < n; step++ {
		to := (c.myRank + step) % n
		from := (c.myRank - step + n) % n
		out := mat[to*sz : (to+1)*sz]
		if to == c.myRank {
			b.copyStep(vec[to*sz:(to+1)*sz], out)
		} else {
			b.recv(from, vec[from*sz:(from+1)*sz])
			b.send(to, out)
		}
		b.endRound()
	}
	return func() { UnpackBuf(a.recv, n*a.count, a.dt, vec) }
}
