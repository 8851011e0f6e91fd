package mpi

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/netsim"
)

// Status reports a completed receive, with Source in communicator ranks.
type Status struct {
	Source int
	Tag    int
	// Bytes is the received payload size; Count(dt) derives elements.
	Bytes int
}

// Count returns the number of dt elements received.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (s *Status) Count(dt Datatype) int {
	if dt.Size() == 0 {
		return 0
	}
	return s.Bytes / dt.Size()
}

// Request is a non-blocking operation handle (MPI_Request).
type Request struct {
	c  *Comm
	sr *adi.SendReq
	rr *adi.RecvReq
	// staged is the lease of the rank's buffer list a strided payload is
	// packed into or lands in (nil for a dense one), home at completion;
	// a receive first unpacks what landed into count elements of dt in
	// user.
	staged   *netsim.Buf
	user     []byte
	count    int
	dt       Datatype
	finished bool
	status   *Status
	err      error
}

func (c *Comm) checkLive(op string) error {
	if c == nil {
		return fmt.Errorf("mpi: %s on nil communicator", op)
	}
	if c.p.finalized {
		return fmt.Errorf("mpi: %s after Finalize", op)
	}
	return nil
}

func (c *Comm) checkPeer(op string, r int) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("mpi: %s: rank %d out of range [0,%d)", op, r, len(c.group))
	}
	return nil
}

// outbound is what Send, Ssend and Isend do before the transfer: check the
// communicator, peer, tag and buffer, address the payload, and pack and
// charge it (op names the call in errors, event the request's completion
// event). A strided payload is packed into a lease of the rank's buffer
// list, for the caller to send home once the send is complete.
func (c *Comm) outbound(op, event string, buf []byte, count int, dt Datatype, dest, tag int) (adi.Device, *adi.SendReq, *netsim.Buf, error) {
	if err := c.checkLive(op); err != nil {
		return nil, nil, nil, err
	}
	if err := c.checkPeer(op, dest); err != nil {
		return nil, nil, nil, err
	}
	if tag < 0 {
		return nil, nil, nil, fmt.Errorf("mpi: %s: negative tag %d", op, tag)
	}
	if err := checkBuf("send", false, buf, count, dt); err != nil {
		return nil, nil, nil, fmt.Errorf("mpi: %s: %w", op, err)
	}
	n := count * dt.size // packed below when strided: overlapping blocks make it more than buf holds
	dev, sr, err := c.address(event, buf[:min(n, len(buf))], dest, tag, c.ctx)
	if err != nil || IsContiguous(dt) {
		return dev, sr, nil, err
	}
	lease := c.p.Eng.Bufs.Get(n)
	dt.move(buf, lease.B, count, true)
	c.p.M.Charge(c.p.memTime(n))
	sr.Data, sr.Env.Len = lease.B, n
	return dev, sr, lease, nil
}

// address looks up the device toward dest and fills a request from the
// engine's free list with packed data on an explicit context.
func (c *Comm) address(event string, data []byte, dest, tag, ctx int) (adi.Device, *adi.SendReq, error) {
	dstWorld := c.group[dest]
	dev := c.p.route(dstWorld)
	if dev == nil {
		return nil, nil, fmt.Errorf("mpi: no device for destination world rank %d", dstWorld)
	}
	sr := c.p.Eng.NewSend(event)
	sr.Env, sr.Dst, sr.Data = adi.Envelope{Src: c.p.rank, Tag: tag, Context: ctx, Len: len(data)}, dstWorld, data
	return dev, sr, nil
}

// sendRaw transmits packed bytes on an explicit context.
func (c *Comm) sendRaw(data []byte, dest, tag, ctx int) error {
	dev, sr, err := c.address("mpi.send", data, dest, tag, ctx)
	if err != nil {
		return err
	}
	return sendWait(dev, sr, nil)
}

// sendWait sends sr on dev and blocks until it is locally complete; the
// request, which nobody else holds then, goes back to the engine's free
// list, and the lease its payload was packed into (if any) home.
func sendWait(dev adi.Device, sr *adi.SendReq, lease *netsim.Buf) error {
	dev.Send(sr)
	sr.Done.Wait()
	err := sr.Err
	sr.Release()
	if lease != nil {
		lease.Release()
	}
	return err
}

func (c *Comm) statusOf(rr *adi.RecvReq) *Status {
	return &Status{
		Source: c.commRankOfWorld(rr.Status.Source),
		Tag:    rr.Status.Tag,
		Bytes:  min(rr.Status.Len, len(rr.Buf)),
	}
}

// Send performs a blocking standard-mode send (MPI_Send): it returns when
// the buffer is reusable. Eager sends complete locally; rendez-vous sends
// complete when the receiver's acknowledgement round-trip finishes.
func (c *Comm) Send(buf []byte, count int, dt Datatype, dest, tag int) error {
	dev, sr, lease, err := c.outbound("Send", "mpi.send", buf, count, dt, dest, tag)
	if err != nil {
		return err
	}
	return sendWait(dev, sr, lease)
}

// Isend starts a non-blocking send (MPI_Isend). Per the paper (§4.2.3),
// "the MPI control thread creates a thread for each non-blocking send
// operation": the blocking device send runs on a temporary Marcel thread.
func (c *Comm) Isend(buf []byte, count int, dt Datatype, dest, tag int) (*Request, error) {
	dev, sr, lease, err := c.outbound("Isend", "mpi.isend", buf, count, dt, dest, tag)
	if err != nil {
		return nil, err
	}
	c.p.M.Spawn("mpi.isend", func() { dev.Send(sr) })
	return &Request{c: c, sr: sr, staged: lease}, nil
}

// Recv performs a blocking receive (MPI_Recv). src may be AnySource, tag
// may be AnyTag.
func (c *Comm) Recv(buf []byte, count int, dt Datatype, src, tag int) (*Status, error) {
	req, err := c.Irecv(buf, count, dt, src, tag)
	if err != nil {
		return nil, err
	}
	return req.Wait()
}

// Irecv starts a non-blocking receive (MPI_Irecv).
func (c *Comm) Irecv(buf []byte, count int, dt Datatype, src, tag int) (*Request, error) {
	if err := c.checkLive("Irecv"); err != nil {
		return nil, err
	}
	worldSrc := adi.AnySource
	if src != AnySource {
		if err := c.checkPeer("Irecv", src); err != nil {
			return nil, err
		}
		worldSrc = c.group[src]
	}
	if err := checkBuf("receive", true, buf, count, dt); err != nil {
		return nil, fmt.Errorf("mpi: Irecv: %w", err)
	}
	rr := c.p.Eng.NewRecv("mpi.irecv")
	r := &Request{c: c, rr: rr}
	rr.Src, rr.Tag, rr.Context, rr.Buf = worldSrc, tag, c.ctx, buf[:count*dt.size]
	if !IsContiguous(dt) {
		r.staged, r.user, r.count, r.dt = c.p.Eng.Bufs.Get(len(rr.Buf)), buf, count, dt
		rr.Buf = r.staged.B
	}
	c.p.Eng.PostRecv(rr)
	return r, nil
}

// Wait blocks until the request completes (MPI_Wait), returning the
// receive status (nil for sends). The device request goes back to the
// engine's free list then: a second Wait returns what the first did.
func (r *Request) Wait() (*Status, error) {
	if r.finished {
		return r.status, r.err
	}
	switch {
	case r.sr != nil:
		r.sr.Done.Wait()
		r.err = r.sr.Err
		r.sr.Release()
	case r.rr != nil:
		r.rr.Done.Wait()
		r.err = r.rr.Err
		r.status = r.c.statusOf(r.rr)
		r.rr.Release()
		if r.staged != nil {
			// The count is an upper bound: only the elements that arrived
			// are unpacked, the rest of the user's buffer stays as it was.
			r.c.p.M.Charge(r.c.p.memTime(len(r.staged.B)))
			UnpackBuf(r.user, r.count, r.dt, r.staged.B[:r.status.Bytes])
		}
	}
	if r.staged != nil {
		r.staged.Release()
	}
	r.sr, r.rr, r.staged, r.user, r.finished = nil, nil, nil, nil, true
	return r.status, r.err
}

// WaitAll completes every request (MPI_Waitall), returning one status per
// request in order (nil for sends) and the first error encountered.
//
//madlint:ignore deadexport bench/ uses it
func WaitAll(reqs ...*Request) ([]*Status, error) {
	statuses := make([]*Status, len(reqs))
	var first error
	for i, r := range reqs {
		st, err := r.Wait()
		statuses[i] = st
		if err != nil && first == nil {
			first = err
		}
	}
	return statuses, first
}

// Sendrecv exchanges messages with (possibly different) partners without
// deadlock (MPI_Sendrecv).
func (c *Comm) Sendrecv(sendBuf []byte, sendCount int, sendDT Datatype, dest, sendTag int,
	recvBuf []byte, recvCount int, recvDT Datatype, src, recvTag int) (*Status, error) {
	rreq, err := c.Irecv(recvBuf, recvCount, recvDT, src, recvTag)
	if err != nil {
		return nil, err
	}
	sreq, err := c.Isend(sendBuf, sendCount, sendDT, dest, sendTag)
	if err != nil {
		return nil, err
	}
	if _, err := sreq.Wait(); err != nil {
		return nil, err
	}
	return rreq.Wait()
}
