package mpi

import (
	"fmt"

	"mpichmad/internal/adi"
	"mpichmad/internal/vtime"
)

// Ssend performs a synchronous-mode send (MPI_Ssend): it completes only
// after the receiver has matched the message. The devices implement it by
// forcing the rendez-vous transfer mode regardless of size.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
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

// ReduceScatter combines count-per-rank blocks with op and scatters block
// r to rank r (MPI_Reduce_scatter with equal counts). Compiled through the
// schedule engine as a ring schedule — no rank-0 reduce bottleneck, and
// (n−1)/n of the vector per link instead of the old reduce-then-scatter
// body's full log(n) copies.
func (c *Comm) ReduceScatter(sendBuf, recvBuf []byte, countPerRank int, dt Datatype, op Op) error {
	return c.blocking(c.IreduceScatter(sendBuf, recvBuf, countPerRank, dt, op))
}
