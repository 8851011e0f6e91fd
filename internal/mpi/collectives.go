package mpi

// collCtx is the communicator's paired context (ctx+1). Every collective
// compiles into a schedule (schedule.go) whose messages carry a unique
// per-operation tag (nbc.go) on it, so none can collide with user
// point-to-point traffic.
func (c *Comm) collCtx() int { return c.ctx + 1 }

// Every blocking collective below is its nonblocking twin compiled and
// immediately waited on: the schedule compilers in this file, hcoll.go and
// hmulti.go hold the only algorithm bodies and the collForms table
// (forms.go) the only place they are bound to an operation, so a new
// algorithm is a new compiler plus a table row and nothing else.

// Barrier blocks until all members have entered it (MPI_Barrier).
func (c *Comm) Barrier() error {
	req, err := c.Ibarrier()
	if err != nil {
		return err
	}
	return req.Wait()
}

// Bcast broadcasts count elements of dt from root to every member
// (MPI_Bcast), compiled as one schedule: the flat binomial tree, the
// two-level tree, whole or pipelined in segments, or the multi-leader form
// whose shards walk chains of clusters over every bridge at once.
func (c *Comm) Bcast(buf []byte, count int, dt Datatype, root int) error {
	req, err := c.Ibcast(buf, count, dt, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Reduce combines count elements from every member's sendBuf with op,
// leaving the result in root's recvBuf (MPI_Reduce).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) error {
	req, err := c.Ireduce(sendBuf, recvBuf, count, dt, op, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Allreduce combines count elements from every member's sendBuf with op,
// leaving the result in every member's recvBuf (MPI_Allreduce), compiled
// as one schedule: a reduce to rank 0 chained with a broadcast, a two-level
// form whose cluster leaders exchange their partials, a ring, or the
// multi-leader sharded form.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	req, err := c.Iallreduce(sendBuf, recvBuf, count, dt, op)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Gather collects count elements from every member into root's recvBuf,
// ordered by rank (MPI_Gather). recvBuf needs size*count elements at root.
func (c *Comm) Gather(sendBuf []byte, recvBuf []byte, count int, dt Datatype, root int) error {
	req, err := c.Igather(sendBuf, recvBuf, count, dt, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Allgather gathers count elements from each member into every member's
// recvBuf in rank order (MPI_Allgather).
func (c *Comm) Allgather(sendBuf []byte, recvBuf []byte, count int, dt Datatype) error {
	req, err := c.Iallgather(sendBuf, recvBuf, count, dt)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Alltoall sends a distinct count-element block to every member and
// receives one from each (MPI_Alltoall), compiled as one schedule: the flat
// pairwise rotation, the two-level leader-bundled exchange, whole or
// pipelined in segments, or the multi-leader form whose co-leaders carry
// each directed cluster bundle over their own bridge.
func (c *Comm) Alltoall(sendBuf []byte, recvBuf []byte, count int, dt Datatype) error {
	req, err := c.Ialltoall(sendBuf, recvBuf, count, dt)
	if err != nil {
		return err
	}
	return req.Wait()
}

// ---- Topology-blind schedule compilers ----
//
// The flat forms that are genuinely different algorithms from their
// two-level counterparts, not their one-cluster case (those — Bcast,
// Gather, the rings — are compiled by hcoll.go on the one-cluster view):
// dissemination vs fan-in/fan-out, one child per round vs all children
// pre-posted, ring vs leader bundles, pairwise rotation vs leader bundles.

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

// reduceSerialRounds appends the binomial reduction tree rooted at root,
// taking one child per round in ascending stride order — a partial is
// folded before the next is even posted, which is what sets it apart from
// treeReduce — and returns the accumulator, complete at the root.
func (c *Comm) reduceSerialRounds(b *schedBuilder, a collArgs, root int) []byte {
	n := c.Size()
	acc := b.loadAcc(a.send, a.recv, a.count, a.dt)
	rel := (c.myRank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			b.send((rel-mask+root)%n, acc)
			b.endRound()
			break
		}
		if rel+mask < n {
			part := b.stage(len(acc))
			b.recv((rel+mask+root)%n, part)
			b.reduce(acc, part, a.count, a.dt, a.op)
			b.endRound()
		}
	}
	return acc
}

// reduceSerial: the topology-blind binomial reduction tree.
func (c *Comm) reduceSerial(b *schedBuilder, _ *commTopo, a collArgs) func() {
	acc := c.reduceSerialRounds(b, a, a.root)
	if c.myRank != a.root {
		return nil
	}
	return c.unpackVector(a.recv, a.count, a.dt, acc)
}

// allreduceSerial chains the serial reduce-to-0 rounds with the binomial
// broadcast-from-0 (the tree broadcast on the one-cluster view) over one
// shared accumulator.
func (c *Comm) allreduceSerial(b *schedBuilder, _ *commTopo, a collArgs) func() {
	acc := c.reduceSerialRounds(b, a, 0)
	c.bcastTreeRounds(b, c.oneClusterTopo(), acc, 0, 0)
	return c.unpackVector(a.recv, a.count, a.dt, acc)
}

// allgatherRing is the ring algorithm: n-1 rounds, each forwarding the
// block received in the previous round.
func (c *Comm) allgatherRing(b *schedBuilder, _ *commTopo, a collArgs) func() {
	n := c.Size()
	sz := a.count * a.dt.Size()
	ex := a.dt.Extent()
	own := b.stage(sz)
	right := (c.myRank + 1) % n
	left := (c.myRank - 1 + n) % n

	b.copyStep(own, PackBuf(a.send, a.count, a.dt))
	b.endRound()
	incoming := make([][]byte, n-1)
	cur := own
	for s := 0; s < n-1; s++ {
		incoming[s] = b.stage(sz)
		b.recv(left, incoming[s])
		b.send(right, cur)
		b.endRound()
		cur = incoming[s]
	}
	return func() {
		UnpackBuf(a.recv[c.myRank*a.count*ex:], a.count, a.dt, own)
		for s := 0; s < n-1; s++ {
			owner := (c.myRank - s - 1 + 2*n) % n
			UnpackBuf(a.recv[owner*a.count*ex:], a.count, a.dt, incoming[s])
		}
	}
}

// alltoallPairwise is the pairwise rotation: n rounds, exchanging with
// partners at increasing rank distance.
func (c *Comm) alltoallPairwise(b *schedBuilder, _ *commTopo, a collArgs) func() {
	n := c.Size()
	sz := a.count * a.dt.Size()
	ex := a.dt.Extent()
	selfStage := b.stage(sz)
	in := make([][]byte, n)
	for step := 0; step < n; step++ {
		to := (c.myRank + step) % n
		from := (c.myRank - step + n) % n
		out := PackBuf(a.send[to*a.count*ex:], a.count, a.dt)
		if to == c.myRank {
			b.copyStep(selfStage, out)
			b.endRound()
			continue
		}
		in[from] = b.stage(sz)
		b.recv(from, in[from])
		b.send(to, out)
		b.endRound()
	}
	return func() {
		UnpackBuf(a.recv[c.myRank*a.count*ex:], a.count, a.dt, selfStage)
		for from := 0; from < n; from++ {
			if from == c.myRank {
				continue
			}
			UnpackBuf(a.recv[from*a.count*ex:], a.count, a.dt, in[from])
		}
	}
}
