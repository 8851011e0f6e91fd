package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// A receive posted with a Lease and no buffer gets its bytes from the
// session's list when its message matches, on every device that delivers to
// an engine: ch_mad eager and rendez-vous between nodes, smp_plug between the
// two processes of a node, ch_self to the process itself — each with the
// receive posted first and with the message waiting unexpected. Once every
// poster has released its lease, every buffer of the session is home.
func TestLeaseAtMatchOnEveryDevice(t *testing.T) {
	sess, err := Build(Topology{
		Nodes:    []NodeSpec{{Name: "dual", Procs: 2}, {Name: "solo", Procs: 1}},
		Networks: []NetworkSpec{{Name: "sci", Protocol: "sisci", Nodes: []string{"dual", "solo"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		device         string
		from, to, size int
	}{
		{"ch_mad eager", 2, 0, 1 << 10},
		{"ch_mad rendez-vous", 2, 0, 256 << 10},
		{"smp_plug", 1, 0, 4 << 10},
		{"ch_self", 0, 0, 4 << 10},
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		rk := sess.Ranks[rank]
		for i, tc := range cases {
			for k, posted := range []bool{true, false} {
				tag := 2*i + k
				payload := bytes.Repeat([]byte{byte(tag + 1)}, tc.size)
				if tc.from == tc.to && rank == tc.to {
					var send *mpi.Request
					if !posted {
						var err error
						if send, err = c.Isend(payload, tc.size, mpi.Byte, rank, tag); err != nil {
							return err
						}
					}
					rr := rk.Eng.NewRecv("lease")
					rr.Src, rr.Tag, rr.Lease = rank, tag, tc.size
					rk.Eng.PostRecv(rr)
					if posted {
						if rr.Leased != nil {
							return fmt.Errorf("%s: leased before its message matched", tc.device)
						}
						if err := c.Send(payload, tc.size, mpi.Byte, rank, tag); err != nil {
							return err
						}
					} else if _, err := send.Wait(); err != nil {
						return err
					}
					if err := leased(rr, payload, tc.device, posted); err != nil {
						return err
					}
				} else if rank == tc.from {
					if posted {
						rk.Proc.Sleep(vtime.Millisecond)
					}
					if err := c.Send(payload, tc.size, mpi.Byte, tc.to, tag); err != nil {
						return err
					}
				} else if rank == tc.to {
					if !posted {
						rk.Proc.Sleep(vtime.Millisecond)
					}
					rr := rk.Eng.NewRecv("lease")
					rr.Src, rr.Tag, rr.Lease = tc.from, tag, tc.size
					rk.Eng.PostRecv(rr)
					if posted && rr.Leased != nil {
						return fmt.Errorf("%s: leased before its message matched", tc.device)
					}
					if err := leased(rr, payload, tc.device, posted); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.Ranks[2].ChMad.NRndv; n != 2 {
		t.Errorf("ch_mad ran %d rendez-vous, want the 2 of the rendez-vous case", n)
	}
	if out := sess.bufs.Out(); out != 0 {
		t.Errorf("%d buffers out at the end of the session", out)
	}
}

// leased waits for a leased receive, checks that its bytes are the payload in
// a buffer of the session's list, and sends the lease and the request home.
func leased(rr *adi.RecvReq, payload []byte, device string, posted bool) error {
	rr.Done.Wait()
	switch {
	case rr.Err != nil:
		return fmt.Errorf("%s posted=%v: %w", device, posted, rr.Err)
	case rr.Leased == nil || len(rr.Buf) != len(payload) || &rr.Buf[0] != &rr.Leased.B[0]:
		return fmt.Errorf("%s posted=%v: the payload did not land in a leased buffer", device, posted)
	case !bytes.Equal(rr.Buf, payload):
		return fmt.Errorf("%s posted=%v: payload corrupted", device, posted)
	}
	rr.ReleaseLease()
	rr.Release()
	return nil
}
