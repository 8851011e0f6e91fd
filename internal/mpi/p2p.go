package mpi

import (
	"fmt"

	"mpichmad/internal/adi"
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
	// finish runs once at completion with the number of bytes that
	// landed (derived-type unpack).
	finish   func(received int)
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
// communicator, peer and tag, pack and charge the payload, and address it
// (op names the call in errors, event the request's completion event).
func (c *Comm) outbound(op, event string, buf []byte, count int, dt Datatype, dest, tag int) (adi.Device, *adi.SendReq, error) {
	if err := c.checkLive(op); err != nil {
		return nil, nil, err
	}
	if err := c.checkPeer(op, dest); err != nil {
		return nil, nil, err
	}
	if tag < 0 {
		return nil, nil, fmt.Errorf("mpi: %s: negative tag %d", op, tag)
	}
	data := PackBuf(buf, count, dt)
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(data)))
	}
	return c.address(event, data, dest, tag, c.ctx)
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
	return sendWait(dev, sr)
}

// sendWait sends sr on dev and blocks until it is locally complete; the
// request, which nobody else holds then, goes back to the engine's free
// list.
func sendWait(dev adi.Device, sr *adi.SendReq) error {
	dev.Send(sr)
	sr.Done.Wait()
	err := sr.Err
	sr.Release()
	return err
}

func (c *Comm) statusOf(rr *adi.RecvReq) *Status {
	n := rr.Status.Len
	if n > len(rr.Buf) {
		n = len(rr.Buf)
	}
	return &Status{
		Source: c.commRankOfWorld(rr.Status.Source),
		Tag:    rr.Status.Tag,
		Bytes:  n,
	}
}

// Send performs a blocking standard-mode send (MPI_Send): it returns when
// the buffer is reusable. Eager sends complete locally; rendez-vous sends
// complete when the receiver's acknowledgement round-trip finishes.
func (c *Comm) Send(buf []byte, count int, dt Datatype, dest, tag int) error {
	dev, sr, err := c.outbound("Send", "mpi.send", buf, count, dt, dest, tag)
	if err != nil {
		return err
	}
	return sendWait(dev, sr)
}

// Isend starts a non-blocking send (MPI_Isend). Per the paper (§4.2.3),
// "the MPI control thread creates a thread for each non-blocking send
// operation": the blocking device send runs on a temporary Marcel thread.
func (c *Comm) Isend(buf []byte, count int, dt Datatype, dest, tag int) (*Request, error) {
	dev, sr, err := c.outbound("Isend", "mpi.isend", buf, count, dt, dest, tag)
	if err != nil {
		return nil, err
	}
	c.p.M.Spawn("mpi.isend", func() { dev.Send(sr) })
	return &Request{c: c, sr: sr}, nil
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
	if src != AnySource {
		if err := c.checkPeer("Irecv", src); err != nil {
			return nil, err
		}
	}
	worldSrc := adi.AnySource
	if src != AnySource {
		worldSrc = c.group[src]
	}
	need := count * dt.Size()
	landing := buf
	var finish func(int)
	if !IsContiguous(dt) {
		tmp := make([]byte, need)
		landing = tmp
		// The count is an upper bound: only the elements that arrived are
		// unpacked, the rest of the user's buffer stays as it was.
		finish = func(received int) {
			c.p.M.Charge(c.p.memTime(need))
			UnpackBuf(buf, count, dt, tmp[:received])
		}
	} else {
		landing = buf[:need]
	}
	rr := c.p.Eng.NewRecv("mpi.irecv")
	rr.Src, rr.Tag, rr.Context, rr.Buf = worldSrc, tag, c.ctx, landing
	c.p.Eng.PostRecv(rr)
	return &Request{c: c, rr: rr, finish: finish}, nil
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
		if r.finish != nil {
			r.finish(r.status.Bytes)
		}
	}
	r.sr, r.rr, r.finished = nil, nil, true
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
