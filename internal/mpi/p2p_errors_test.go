package mpi_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// TestP2PErrorsNameTheCall: a negative count or a short buffer on either
// side of a point-to-point call is an MPI error that names the call the
// program made — Recv as Recv, not as the Irecv it posts — and says which
// side is wrong; nothing panics, and the session goes on.
func TestP2PErrorsNameTheCall(t *testing.T) {
	type call func(c *mpi.Comm, send, recv []byte, sendCount, recvCount int) error
	peerOf := func(c *mpi.Comm) int { return 1 - c.Rank() }
	forms := []struct {
		op    string
		sends bool // the call has a send side
		recvs bool // the call has a receive side
		f     call
	}{
		{op: "Send", sends: true, f: func(c *mpi.Comm, s, _ []byte, n, _ int) error {
			return c.Send(s, n, mpi.Byte, peerOf(c), 1)
		}},
		{op: "Ssend", sends: true, f: func(c *mpi.Comm, s, _ []byte, n, _ int) error {
			return c.Ssend(s, n, mpi.Byte, peerOf(c), 1)
		}},
		{op: "Isend", sends: true, f: func(c *mpi.Comm, s, _ []byte, n, _ int) error {
			_, err := c.Isend(s, n, mpi.Byte, peerOf(c), 1)
			return err
		}},
		{op: "Recv", recvs: true, f: func(c *mpi.Comm, _, r []byte, _, n int) error {
			_, err := c.Recv(r, n, mpi.Byte, peerOf(c), 1)
			return err
		}},
		{op: "Irecv", recvs: true, f: func(c *mpi.Comm, _, r []byte, _, n int) error {
			_, err := c.Irecv(r, n, mpi.Byte, peerOf(c), 1)
			return err
		}},
		{op: "Sendrecv", sends: true, recvs: true, f: func(c *mpi.Comm, s, r []byte, sn, rn int) error {
			_, err := c.Sendrecv(s, sn, mpi.Byte, peerOf(c), 1, r, rn, mpi.Byte, peerOf(c), 1)
			return err
		}},
	}
	sess, err := cluster.Build(cluster.TwoNodes("bip"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		for _, f := range forms {
			for _, side := range []string{"send", "receive"} {
				if side == "send" && !f.sends || side == "receive" && !f.recvs {
					continue
				}
				for _, bad := range []struct {
					count int
					says  string
				}{{-1, "negative count -1"}, {4, side + " buffer is 2 bytes, need 4"}} {
					// The other side of a Sendrecv is well formed.
					sendCount, recvCount := 2, 2
					if side == "send" {
						sendCount = bad.count
					} else {
						recvCount = bad.count
					}
					err := f.f(c, make([]byte, 2), make([]byte, 2), sendCount, recvCount)
					want := "mpi: " + f.op + ": " + bad.says
					if err == nil || err.Error() != want {
						return fmt.Errorf("%s, %s side count %d: %v, want %q", f.op, side, bad.count, err, want)
					}
				}
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRefusedSendrecvPostsNoReceive: a Sendrecv whose send side is refused
// posts nothing, so the peer's next message goes to the receive that asks
// for it. The receive side used to be posted first and kept: it caught the
// message, and the later Recv never completed (a virtual-time deadlock).
func TestRefusedSendrecvPostsNoReceive(t *testing.T) {
	sess, err := cluster.Build(cluster.TwoNodes("bip"))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		if rank == 1 {
			return c.Send(want, 4, mpi.Byte, 0, 0)
		}
		stale := make([]byte, 4)
		_, err := c.Sendrecv(make([]byte, 2), 4, mpi.Byte, 1, 0, stale, 4, mpi.Byte, 1, 0)
		if err == nil || !strings.Contains(err.Error(), "mpi: Sendrecv: send buffer is 2 bytes, need 4") {
			return fmt.Errorf("Sendrecv with a short send buffer: %v", err)
		}
		got := make([]byte, 4)
		if _, err := c.Recv(got, 4, mpi.Byte, 1, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) || !bytes.Equal(stale, make([]byte, 4)) {
			return fmt.Errorf("Recv got %v and the refused Sendrecv's buffer %v; want %v and zeros", got, stale, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
