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

// outbound checks what Send, Ssend, Isend and Sendrecv send: the
// communicator, peer, tag and buffer (op names the call in errors). It
// returns the device toward dest, and posts nothing.
func (c *Comm) outbound(op string, buf []byte, count int, dt Datatype, dest, tag int) (adi.Device, error) {
	if err := c.checkLive(op); err != nil {
		return nil, err
	}
	if err := c.checkPeer(op, dest); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: %s: negative tag %d", op, tag)
	}
	if err := checkBuf("send", false, buf, count, dt); err != nil {
		return nil, fmt.Errorf("mpi: %s: %w", op, err)
	}
	return c.device(dest)
}

// start addresses a checked send's payload in a request from the engine's
// free list (event: its completion event), packing and charging a strided
// one into a lease of the rank's buffer list, for the caller to send home
// once the send is complete.
func (c *Comm) start(event string, buf []byte, count int, dt Datatype, dest, tag int) (*adi.SendReq, *netsim.Buf) {
	n := count * dt.size // packed below when strided: overlapping blocks make it more than buf holds
	sr := c.address(event, buf[:min(n, len(buf))], dest, tag, c.ctx)
	if IsContiguous(dt) {
		return sr, nil
	}
	lease := c.p.Eng.Bufs.Get(n)
	dt.move(buf, lease.B, count, true)
	c.p.M.Charge(c.p.memTime(n))
	sr.Data, sr.Env.Len = lease.B, n
	return sr, lease
}

// device is the device toward comm rank dest.
func (c *Comm) device(dest int) (adi.Device, error) {
	if dev := c.p.route(c.group[dest]); dev != nil {
		return dev, nil
	}
	return nil, fmt.Errorf("mpi: no device for destination world rank %d", c.group[dest])
}

// address fills a request from the engine's free list with packed data on
// an explicit context.
func (c *Comm) address(event string, data []byte, dest, tag, ctx int) *adi.SendReq {
	sr := c.p.Eng.NewSend(event)
	sr.Env, sr.Dst, sr.Data = adi.Envelope{Src: c.p.rank, Tag: tag, Context: ctx, Len: len(data)}, c.group[dest], data
	return sr
}

// sendRaw transmits packed bytes on an explicit context.
func (c *Comm) sendRaw(data []byte, dest, tag, ctx int) error {
	dev, err := c.device(dest)
	if err != nil {
		return err
	}
	return sendWait(dev, c.address("mpi.send", data, dest, tag, ctx), nil)
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
	dev, err := c.outbound("Send", buf, count, dt, dest, tag)
	if err != nil {
		return err
	}
	sr, lease := c.start("mpi.send", buf, count, dt, dest, tag)
	return sendWait(dev, sr, lease)
}

// Isend starts a non-blocking send (MPI_Isend). Per the paper (§4.2.3),
// "the MPI control thread creates a thread for each non-blocking send
// operation": the blocking device send runs on a temporary Marcel thread.
//
//madlint:ignore deadexport bench/ uses it
func (c *Comm) Isend(buf []byte, count int, dt Datatype, dest, tag int) (*Request, error) {
	dev, err := c.outbound("Isend", buf, count, dt, dest, tag)
	if err != nil {
		return nil, err
	}
	return c.isend(dev, buf, count, dt, dest, tag), nil
}

// isend starts a checked send on a temporary Marcel thread.
func (c *Comm) isend(dev adi.Device, buf []byte, count int, dt Datatype, dest, tag int) *Request {
	sr, lease := c.start("mpi.isend", buf, count, dt, dest, tag)
	c.p.M.Spawn("mpi.isend", func() { dev.Send(sr) })
	return &Request{c: c, sr: sr, staged: lease}
}

// Recv performs a blocking receive (MPI_Recv). src may be AnySource, tag
// may be AnyTag.
func (c *Comm) Recv(buf []byte, count int, dt Datatype, src, tag int) (*Status, error) {
	req, err := c.irecv("Recv", buf, count, dt, src, tag)
	if err != nil {
		return nil, err
	}
	return req.Wait()
}

// Irecv starts a non-blocking receive (MPI_Irecv).
//
//madlint:ignore deadexport bench/ uses it
func (c *Comm) Irecv(buf []byte, count int, dt Datatype, src, tag int) (*Request, error) {
	return c.irecv("Irecv", buf, count, dt, src, tag)
}

// irecv checks a receive and posts it (op names the call in errors).
func (c *Comm) irecv(op string, buf []byte, count int, dt Datatype, src, tag int) (*Request, error) {
	if err := c.checkLive(op); err != nil {
		return nil, err
	}
	worldSrc := adi.AnySource
	if src != AnySource {
		if err := c.checkPeer(op, src); err != nil {
			return nil, err
		}
		worldSrc = c.group[src]
	}
	if err := checkBuf("receive", true, buf, count, dt); err != nil {
		return nil, fmt.Errorf("mpi: %s: %w", op, err)
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
// deadlock (MPI_Sendrecv). The send side is checked before the receive is
// posted: a refused call leaves no receive behind to catch a later message.
func (c *Comm) Sendrecv(sendBuf []byte, sendCount int, sendDT Datatype, dest, sendTag int,
	recvBuf []byte, recvCount int, recvDT Datatype, src, recvTag int) (*Status, error) {
	dev, err := c.outbound("Sendrecv", sendBuf, sendCount, sendDT, dest, sendTag)
	if err != nil {
		return nil, err
	}
	rreq, err := c.irecv("Sendrecv", recvBuf, recvCount, recvDT, src, recvTag)
	if err != nil {
		return nil, err
	}
	if _, err := c.isend(dev, sendBuf, sendCount, sendDT, dest, sendTag).Wait(); err != nil {
		return nil, err
	}
	return rreq.Wait()
}
