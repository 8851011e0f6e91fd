package mpi

// Ssend performs a synchronous-mode send (MPI_Ssend): it completes only
// after the receiver has matched the message. The devices implement it by
// forcing the rendez-vous transfer mode regardless of size.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Ssend(buf []byte, count int, dt Datatype, dest, tag int) error {
	dev, err := c.outbound("Ssend", buf, count, dt, dest, tag)
	if err != nil {
		return err
	}
	sr, lease := c.start("mpi.ssend", buf, count, dt, dest, tag)
	sr.Sync = true
	return sendWait(dev, sr, lease)
}

// ReduceScatter combines count-per-rank blocks with op and scatters block
// r to rank r (MPI_Reduce_scatter with equal counts). Compiled through the
// schedule engine as a ring schedule — no rank-0 reduce bottleneck, and
// (n−1)/n of the vector per link instead of the old reduce-then-scatter
// body's full log(n) copies.
func (c *Comm) ReduceScatter(sendBuf, recvBuf []byte, countPerRank int, dt Datatype, op Op) error {
	return errOf(c.reduceScatter(sendBuf, recvBuf, countPerRank, dt, op, true))
}
