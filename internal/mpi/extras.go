package mpi

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/vtime"
)

// Now returns the current virtual time of this process's simulation —
// the reproduction's MPI_Wtime.
func (p *Process) Now() vtime.Time { return p.M.S.Now() }

// Ssend performs a synchronous-mode send (MPI_Ssend): it completes only
// after the receiver has matched the message. The devices implement it by
// forcing the rendez-vous transfer mode regardless of size.
func (c *Comm) Ssend(buf []byte, count int, dt Datatype, dest, tag int) error {
	if err := c.checkLive("Ssend"); err != nil {
		return err
	}
	if err := c.checkPeer("Ssend", dest); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("mpi: Ssend: negative tag %d", tag)
	}
	data := PackBuf(buf, count, dt)
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(data)))
	}
	dstWorld := c.group[dest]
	sr := &adi.SendReq{
		Env:  adi.Envelope{Src: c.p.rank, Tag: tag, Context: c.ctx, Len: len(data)},
		Dst:  dstWorld,
		Data: data,
		Sync: true,
		Done: vtime.NewEvent(c.p.M.S, "mpi.ssend"),
	}
	dev := c.p.route(dstWorld)
	if dev == nil {
		return fmt.Errorf("mpi: no device for destination world rank %d", dstWorld)
	}
	dev.Send(sr)
	sr.Done.Wait()
	return sr.Err
}

// WaitAny blocks until at least one request completes and returns its
// index (MPI_Waitany). Completed requests are finalized lazily via Wait.
// The wait is event-driven: the task subscribes to every request's
// completion event and sleeps until the first one fires, consuming no
// simulated CPU (the old implementation polled every microsecond).
func WaitAny(reqs ...*Request) (int, *Status, error) {
	if len(reqs) == 0 {
		return -1, nil, fmt.Errorf("mpi: WaitAny with no requests")
	}
	p := reqs[0].c.p
	scan := func() (int, *Status, error, bool) {
		for i, r := range reqs {
			done, st, err := r.Test()
			if done {
				return i, st, err, true
			}
		}
		return -1, nil, nil, false
	}
	if i, st, err, done := scan(); done {
		return i, st, err
	}
	// Subscribe exactly once per request — and unsubscribe on return, so
	// a drain loop over n requests stays linear instead of piling dead
	// closures onto the still-pending ones. A wakeup implies some
	// request's completion event fired, so the rescan always finds one.
	any := vtime.NewEvent(p.M.S, "mpi.waitany")
	cancels := make([]func(), 0, len(reqs))
	for _, r := range reqs {
		cancels = append(cancels, r.doneEvent().OnFire(any.Fire))
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	any.Wait()
	i, st, err, done := scan()
	if !done {
		return -1, nil, fmt.Errorf("mpi: WaitAny woke with no completed request")
	}
	return i, st, err
}

// Allgatherv gathers variable-sized contributions from every rank into
// every rank's recvBuf (MPI_Allgatherv). counts/displs are in elements;
// nil displs means dense rank order.
func (c *Comm) Allgatherv(sendBuf []byte, sendCount int, recvBuf []byte, counts, displs []int, dt Datatype) error {
	if err := c.checkLive("Allgatherv"); err != nil {
		return err
	}
	if len(counts) != c.Size() {
		return fmt.Errorf("mpi: Allgatherv: %d counts for %d ranks", len(counts), c.Size())
	}
	if err := c.Gatherv(sendBuf, sendCount, recvBuf, counts, displs, dt, 0); err != nil {
		return err
	}
	total := 0
	if displs == nil {
		for _, n := range counts {
			total += n
		}
	} else {
		for i, n := range counts {
			if e := displs[i] + n; e > total {
				total = e
			}
		}
	}
	return c.Bcast(recvBuf, total, dt, 0)
}

// ReduceScatter combines count-per-rank blocks with op and scatters block
// r to rank r (MPI_Reduce_scatter with equal counts). Compiled through the
// schedule engine as a ring schedule — no rank-0 reduce bottleneck, and
// (n−1)/n of the vector per link instead of the old reduce-then-scatter
// body's full log(n) copies.
func (c *Comm) ReduceScatter(sendBuf, recvBuf []byte, countPerRank int, dt Datatype, op Op) error {
	req, err := c.IreduceScatter(sendBuf, recvBuf, countPerRank, dt, op)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Pack serializes count elements of dt from buf into a contiguous byte
// slice (MPI_Pack), charging the local memcpy.
func (c *Comm) Pack(buf []byte, count int, dt Datatype) []byte {
	out := PackBuf(buf, count, dt)
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(out)))
	}
	return out
}

// Unpack deserializes contiguous bytes into count elements of dt inside
// buf (MPI_Unpack).
func (c *Comm) Unpack(packed []byte, buf []byte, count int, dt Datatype) {
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(packed)))
	}
	UnpackBuf(buf, count, dt, packed)
}
