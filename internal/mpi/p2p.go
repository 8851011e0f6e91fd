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

// sendRaw transmits packed bytes on an explicit context. Blocking: it
// returns when the send is locally complete, and its request, which nobody
// else holds then, goes back to the engine's free list.
func (c *Comm) sendRaw(data []byte, dest, tag, ctx int) error {
	dstWorld := c.group[dest]
	dev := c.p.route(dstWorld)
	if dev == nil {
		return fmt.Errorf("mpi: no device for destination world rank %d", dstWorld)
	}
	sr := c.p.Eng.NewSend("mpi.send")
	sr.Env, sr.Dst, sr.Data = adi.Envelope{Src: c.p.rank, Tag: tag, Context: ctx, Len: len(data)}, dstWorld, data
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
	if err := c.checkLive("Send"); err != nil {
		return err
	}
	if err := c.checkPeer("Send", dest); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("mpi: Send: negative tag %d", tag)
	}
	data := PackBuf(buf, count, dt)
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(data)))
	}
	return c.sendRaw(data, dest, tag, c.ctx)
}

// Isend starts a non-blocking send (MPI_Isend). Per the paper (§4.2.3),
// "the MPI control thread creates a thread for each non-blocking send
// operation": the blocking device send runs on a temporary Marcel thread.
func (c *Comm) Isend(buf []byte, count int, dt Datatype, dest, tag int) (*Request, error) {
	if err := c.checkLive("Isend"); err != nil {
		return nil, err
	}
	if err := c.checkPeer("Isend", dest); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: Isend: negative tag %d", tag)
	}
	data := PackBuf(buf, count, dt)
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(data)))
	}
	dstWorld := c.group[dest]
	dev := c.p.route(dstWorld)
	if dev == nil {
		return nil, fmt.Errorf("mpi: no device for destination world rank %d", dstWorld)
	}
	sr := c.p.Eng.NewSend("mpi.isend")
	sr.Env, sr.Dst, sr.Data = adi.Envelope{Src: c.p.rank, Tag: tag, Context: c.ctx, Len: len(data)}, dstWorld, data
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
