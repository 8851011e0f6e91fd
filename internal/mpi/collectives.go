package mpi

import "fmt"

// Static collective tags for the operations that still run as direct call
// trees (variable-count gather/scatter, scan). Everything else compiles
// into a schedule (schedule.go) whose messages carry a unique per-operation
// tag at tagNBCBase and above; collectives run on the communicator's
// paired context (ctx+1), so neither can collide with user point-to-point
// traffic.
const (
	tagGather = iota
	tagScatter
	tagScan
)

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
// (MPI_Bcast). The tuning table picks the two-level tree (pipelined in
// segments for large payloads) on multi-cluster topologies, the flat
// binomial tree otherwise.
func (c *Comm) Bcast(buf []byte, count int, dt Datatype, root int) error {
	req, err := c.Ibcast(buf, count, dt, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Reduce combines count elements from every member's sendBuf with op,
// leaving the result in root's recvBuf (MPI_Reduce).
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) error {
	req, err := c.Ireduce(sendBuf, recvBuf, count, dt, op, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Allreduce is Reduce to rank 0 chained with Bcast (MPI_Allreduce),
// compiled as one schedule.
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
// receives one from each (MPI_Alltoall). Flat pairwise rotation, or the
// two-level leader-bundled exchange on multi-cluster topologies.
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

// ---- Remaining direct (non-scheduled) collectives ----

// Gatherv is the variable-count gather (MPI_Gatherv). displs are element
// offsets into recvBuf per rank; nil means dense packing in rank order.
func (c *Comm) Gatherv(sendBuf []byte, sendCount int, recvBuf []byte, counts, displs []int, dt Datatype, root int) error {
	if err := c.checkLive("Gatherv"); err != nil {
		return err
	}
	if err := c.checkPeer("Gatherv", root); err != nil {
		return err
	}
	if c.myRank != root {
		data := PackBuf(sendBuf, sendCount, dt)
		return c.sendRaw(data, root, tagGather, c.collCtx())
	}
	if len(counts) != c.Size() {
		return fmt.Errorf("mpi: Gatherv: %d counts for %d ranks", len(counts), c.Size())
	}
	if displs == nil {
		displs = make([]int, c.Size())
		off := 0
		for i, n := range counts {
			displs[i] = off
			off += n
		}
	}
	ex := dt.Extent()
	for r := 0; r < c.Size(); r++ {
		dst := recvBuf[displs[r]*ex:]
		if r == root {
			data := PackBuf(sendBuf, sendCount, dt)
			c.p.M.Charge(c.p.memTime(len(data)))
			UnpackBuf(dst, counts[r], dt, data)
			continue
		}
		tmp := c.p.Eng.Bufs.Get(counts[r] * dt.Size())
		if _, err := c.recvRaw(tmp.B, r, tagGather, c.collCtx()); err != nil {
			return err
		}
		UnpackBuf(dst, counts[r], dt, tmp.B)
		tmp.Release()
	}
	return nil
}

// Scatter distributes count elements per rank from root's sendBuf
// (MPI_Scatter).
func (c *Comm) Scatter(sendBuf []byte, recvBuf []byte, count int, dt Datatype, root int) error {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = count
	}
	return c.Scatterv(sendBuf, counts, nil, recvBuf, count, dt, root)
}

// Scatterv is the variable-count scatter (MPI_Scatterv).
func (c *Comm) Scatterv(sendBuf []byte, counts, displs []int, recvBuf []byte, recvCount int, dt Datatype, root int) error {
	if err := c.checkLive("Scatterv"); err != nil {
		return err
	}
	if err := c.checkPeer("Scatterv", root); err != nil {
		return err
	}
	if c.myRank != root {
		tmp := c.p.Eng.Bufs.Get(recvCount * dt.Size())
		if _, err := c.recvRaw(tmp.B, root, tagScatter, c.collCtx()); err != nil {
			return err
		}
		c.p.M.Charge(c.p.memTime(len(tmp.B)))
		UnpackBuf(recvBuf, recvCount, dt, tmp.B)
		tmp.Release()
		return nil
	}
	if len(counts) != c.Size() {
		return fmt.Errorf("mpi: Scatterv: %d counts for %d ranks", len(counts), c.Size())
	}
	if displs == nil {
		displs = make([]int, c.Size())
		off := 0
		for i, n := range counts {
			displs[i] = off
			off += n
		}
	}
	ex := dt.Extent()
	for r := 0; r < c.Size(); r++ {
		chunk := PackBuf(sendBuf[displs[r]*ex:], counts[r], dt)
		if r == root {
			c.p.M.Charge(c.p.memTime(len(chunk)))
			UnpackBuf(recvBuf, recvCount, dt, chunk)
			continue
		}
		if err := c.sendRaw(chunk, r, tagScatter, c.collCtx()); err != nil {
			return err
		}
	}
	return nil
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(x_0, ..., x_r) (MPI_Scan). Linear chain.
func (c *Comm) Scan(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkLive("Scan"); err != nil {
		return err
	}
	acc := c.p.Eng.Bufs.Get(count * dt.Size())
	copy(acc.B, PackBuf(sendBuf, count, dt))
	c.p.M.Charge(c.p.memTime(len(acc.B)))
	if c.myRank > 0 {
		prefix := c.p.Eng.Bufs.Get(len(acc.B))
		if _, err := c.recvRaw(prefix.B, c.myRank-1, tagScan, c.collCtx()); err != nil {
			return err
		}
		if err := op.Apply(acc.B, prefix.B, count, dt); err != nil {
			return err
		}
		prefix.Release()
	}
	if c.myRank < c.Size()-1 {
		if err := c.sendRaw(acc.B, c.myRank+1, tagScan, c.collCtx()); err != nil {
			return err
		}
	}
	UnpackBuf(recvBuf, count, dt, acc.B)
	acc.Release()
	return nil
}
