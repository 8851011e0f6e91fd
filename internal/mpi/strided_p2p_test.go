package mpi_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// exchange moves one element of dt each way between ranks 0 and 1: both
// post an Irecv and an Isend ("isend"), or rank 0 sends first and rank 1
// answers ("send", "ssend").
func exchange(c *mpi.Comm, mode string, send, recv []byte, dt mpi.Datatype) error {
	peer := 1 - c.Rank()
	if mode == "isend" {
		rq, err := c.Irecv(recv, 1, dt, peer, 7)
		if err != nil {
			return err
		}
		sq, err := c.Isend(send, 1, dt, peer, 7)
		if err != nil {
			return err
		}
		_, err = mpi.WaitAll(rq, sq)
		return err
	}
	for turn := range 2 {
		var err error
		switch {
		case turn != c.Rank():
			_, err = c.Recv(recv, 1, dt, peer, 7)
		case mode == "ssend":
			err = c.Ssend(send, 1, dt, peer, 7)
		default:
			err = c.Send(send, 1, dt, peer, 7)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// A strided point-to-point message is packed into, and lands in, a lease of
// the rank's buffer list, so once warm an exchange of one column of a
// 256×256 float64 grid allocates exactly as many times as the same exchange
// of 256 dense float64s (six times more when each strided send made its
// packed copy and each strided receive its landing slice and completion
// closure): non-blocking, blocking and synchronous, between two BIP nodes.
func TestStridedP2PAllocatesAsDense(t *testing.T) {
	column, dense := mpi.Vector(256, 1, 256, mpi.Float64), mpi.Contiguous(256, mpi.Float64)
	allocs := func(mode string, dt mpi.Datatype) float64 {
		sess, err := cluster.Build(cluster.TwoNodes("bip"))
		if err != nil {
			t.Fatal(err)
		}
		var per float64
		err = sess.Run(func(rank int, c *mpi.Comm) error {
			send, recv := make([]byte, dt.Extent()), make([]byte, dt.Extent())
			// Warm first: AllocsPerRun's one warm-up run does not take the
			// scheduler's coroutine pool to its steady state.
			for range 5 {
				if err := exchange(c, mode, send, recv, dt); err != nil {
					return err
				}
			}
			var err error
			n := testing.AllocsPerRun(20, func() {
				if e := exchange(c, mode, send, recv, dt); e != nil {
					err = e
				}
			})
			if rank == 0 {
				per = n
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	for _, mode := range []string{"isend", "send", "ssend"} {
		s, d := allocs(mode, column), allocs(mode, dense)
		t.Logf("%s: a warm strided exchange allocates %.0f times, a dense one %.0f", mode, s, d)
		if s != d {
			t.Errorf("%s: a warm strided exchange allocates %.0f times, a dense one %.0f", mode, s, d)
		}
	}
}

// Every lease a strided point-to-point call takes goes home: after a session
// of strided Send, Ssend and Isend into Recv and Irecv — one receive shorter
// than its count, one truncated with an error — no buffer of the session's
// list is out.
func TestStridedP2PLeasesGoHome(t *testing.T) {
	col := mpi.Vector(4, 1, 3, mpi.Int32) // Size 16, Extent 40
	sess, err := cluster.Build(cluster.TwoNodes("bip"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		grid := fpFill(rank, 3*col.Extent())
		if rank == 0 {
			if err := c.Send(grid, 1, col, 1, 1); err != nil {
				return err
			}
			if err := c.Ssend(grid, 2, col, 1, 2); err != nil {
				return err
			}
			sq, err := c.Isend(grid, 1, col, 1, 3)
			if err != nil {
				return err
			}
			if _, err := sq.Wait(); err != nil {
				return err
			}
			return c.Send(grid, 3*col.Size(), mpi.Byte, 1, 4)
		}
		if _, err := c.Recv(grid, 1, col, 0, 1); err != nil {
			return err
		}
		rq, err := c.Irecv(grid, 2, col, 0, 2)
		if err != nil {
			return err
		}
		if _, err := rq.Wait(); err != nil {
			return err
		}
		if st, err := c.Recv(grid, 3, col, 0, 3); err != nil || st.Count(col) != 1 {
			return fmt.Errorf("a short strided receive: %v, status %+v", err, st)
		}
		if _, err := c.Recv(grid, 2, col, 0, 4); err == nil || !strings.Contains(err.Error(), "trunc") {
			return fmt.Errorf("a strided receive shorter than its message ended in %v, want a truncation error", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := sess.Ranks[0].Eng.Bufs.Out(); out != 0 {
		t.Errorf("%d buffers of the session's list still out", out)
	}
}

// Point-to-point calls check the user's buffer against count·Extent: a
// negative count or a short buffer is an MPI error at the call, nothing is
// leased, and a receive into a short slice with spare capacity leaves the
// bytes past its length alone.
func TestP2PRejectsShortBuffer(t *testing.T) {
	col := mpi.Vector(2, 1, 2, mpi.Int32) // Size 8, Extent 12
	sess, err := cluster.Build(cluster.TwoNodes("bip"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		backing := bytes.Repeat([]byte{0xAA}, 64)
		short, peer := backing[:8], 1-rank
		for _, call := range []struct {
			name string
			err  error
		}{
			{"Send short", c.Send(short, 4, mpi.Int32, peer, 1)},
			{"Send negative", c.Send(short, -1, mpi.Int32, peer, 1)},
			{"Ssend short", c.Ssend(short, 1, col, peer, 1)},
			{"Isend short", func() error { _, err := c.Isend(short, 3, mpi.Int32, peer, 1); return err }()},
			{"Irecv short", func() error { _, err := c.Irecv(short, 4, mpi.Int32, peer, 1); return err }()},
			{"Irecv strided short", func() error { _, err := c.Irecv(short, 1, col, peer, 1); return err }()},
			{"Recv negative", func() error { _, err := c.Recv(short, -2, col, peer, 1); return err }()},
		} {
			if call.err == nil || !strings.Contains(call.err.Error(), "mpi: ") {
				return fmt.Errorf("%s: %v, want an MPI error", call.name, call.err)
			}
		}
		if !bytes.Equal(backing, bytes.Repeat([]byte{0xAA}, 64)) {
			return fmt.Errorf("a rejected call wrote the buffer: %v", backing)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := sess.Ranks[0].Eng.Bufs.Out(); out != 0 {
		t.Errorf("%d buffers of the session's list out after rejected calls", out)
	}
}

// A type whose Size equals its Extent but whose bytes are listed back to
// front is not dense: a Send of it delivers bytes 4-7 first, as MPI packs in
// type-map order, and a Recv into it puts each half back where it was.
func TestStridedP2PDeliversTypeMapOrder(t *testing.T) {
	for _, dt := range []mpi.Datatype{
		mpi.Struct(8, []mpi.StructField{{Disp: 4, Len: 4}, {Disp: 0, Len: 4}}),
		mpi.Indexed([]int{1, 1}, []int{1, 0}, mpi.Int32),
	} {
		sess, err := cluster.Build(cluster.TwoNodes("bip"))
		if err != nil {
			t.Fatal(err)
		}
		user := fpFill(0, 8)
		swapped := append(append([]byte(nil), user[4:]...), user[:4]...)
		err = sess.Run(func(rank int, c *mpi.Comm) error {
			if rank == 0 {
				if err := c.Send(user, 1, dt, 1, 1); err != nil {
					return err
				}
				return c.Send(swapped, 8, mpi.Byte, 1, 2)
			}
			wire, back := make([]byte, 8), make([]byte, 8)
			if _, err := c.Recv(wire, 8, mpi.Byte, 0, 1); err != nil {
				return err
			}
			if _, err := c.Recv(back, 1, dt, 0, 2); err != nil {
				return err
			}
			if !bytes.Equal(wire, swapped) || !bytes.Equal(back, user) {
				return fmt.Errorf("%s: delivered %v and unpacked %v, want %v and %v", dt.Name(), wire, back, swapped, user)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
