package mpi_test

// A schedule that ran to completion goes on its process's free list, cleared,
// and the next compile reuses its storage; a failed one is kept as it is. The
// engine re-arms one receive-request slice and one countdown event for every
// round. These tests hold what that reuse must not change.

import (
	"bytes"
	"fmt"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/experiments"
	"mpichmad/internal/mpi"
)

// A schedule that fails keeps its steps and is never put on the free list,
// also while later collectives of the same process recycle theirs, and its
// engine drops the round storage its receives were posted from; one that
// succeeds is on the list as soon as its request completes, and every round
// after the first re-arms the storage the first made.
func TestRecycleSkipsAFailedSchedule(t *testing.T) {
	const per = 10000
	sess, err := cluster.Build(nNodeTopo(3, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	rk0 := sess.Ranks[0]
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		side, err := c.Dup()
		if err != nil {
			return err
		}
		strided := mpi.Vector(2, 1, 2, mpi.Byte)
		in, out := make([]byte, per*strided.Extent()), make([]byte, per*strided.Extent()*c.Size())
		var failed *mpi.CollRequest
		if rank == 0 {
			// Only rank 0 enters the doomed collective, on a communicator of
			// its own so that the world's sequence stays in step.
			rails := rk0.ChMad.Rails(1)
			rk0.ChMad.SetRails(1, nil)
			if failed, err = side.Iallgather(in, out, per, strided); err != nil {
				return err
			}
			err = failed.Wait()
			rk0.ChMad.SetRails(1, rails)
			if err == nil {
				return fmt.Errorf("Allgather over a withdrawn route did not fail")
			}
			if side.RoundStorage() != nil {
				return fmt.Errorf("the engine kept the round storage a failed round posted receives from")
			}
		}
		var rw any
		for i := 0; i < 3; i++ {
			req, err := c.Iallgather(in, out, per, strided)
			if err != nil {
				return err
			}
			if err := req.Wait(); err != nil {
				return err
			}
			if !req.Recycled() {
				return fmt.Errorf("rank %d: a completed Allgather's schedule is not on the free list", rank)
			}
			if got := c.RoundStorage(); got == nil || (i > 0 && got != rw) {
				return fmt.Errorf("rank %d: the engine did not re-arm one round storage", rank)
			}
			rw = c.RoundStorage()
			if failed != nil && (failed.Recycled() || failed.Steps() == 0) {
				return fmt.Errorf("the failed Allgather's schedule was recycled (%d steps left)", failed.Steps())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// After a mix of collectives — staged, landed in place, strided, rooted —
// every rank holds recycled schedules, and none of them still names a user
// buffer, a lease or a completion closure anywhere in its storage.
func TestRecycledSchedulePinsNoBuffer(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		for _, prep := range []func(*mpi.Comm, int) func() error{
			prepAllreduce, prepBcast, prepAllgather, prepAlltoall,
			func(c *mpi.Comm, n int) func() error { return prepStridedAllgather(c, n/8) },
		} {
			if err := prep(c, 40000)(); err != nil {
				return err
			}
		}
		if spare, pins := sess.Ranks[rank].MPI.SpareSchedules(); spare == 0 || pins != 0 {
			return fmt.Errorf("rank %d: %d recycled schedules hold %d buffers or closures", rank, spare, pins)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mustPanic reports whether fn panicked.
func mustPanic(what string, fn func()) (err error) {
	defer func() {
		if recover() == nil {
			err = fmt.Errorf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

// An Icoll's request stays with its caller, to wait on and test as often as
// it likes.
func TestStaleHandleCollRequest(t *testing.T) {
	sess, err := cluster.Build(nNodeTopo(3, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		req, err := c.Ibarrier()
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := req.Wait(); err != nil {
				return err
			}
			if done, err := req.Test(); !done || err != nil {
				return fmt.Errorf("rank %d: Test after Wait = %v, %v", rank, done, err)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two Iallreduces submitted back to back, the first not yet run, are two
// schedules even when the process has a recycled one to hand out, and each
// delivers its own sum.
func TestRecycleBackToBackIallreduce(t *testing.T) {
	const count = 500
	sess, err := cluster.Build(twoClusterTopo(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		in := func(k int) []int64 {
			v := make([]int64, count)
			for i := range v {
				v[i] = int64(k*1000 + rank*count + i)
			}
			return v
		}
		want := func(k int) []byte {
			v := make([]int64, count)
			for r := 0; r < c.Size(); r++ {
				for i := range v {
					v[i] += int64(k*1000 + r*count + i)
				}
			}
			return mpi.Int64Bytes(v)
		}
		warm := make([]byte, 8*count)
		if err := c.Allreduce(mpi.Int64Bytes(in(0)), warm, count, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		outs := [][]byte{make([]byte, 8*count), make([]byte, 8*count)}
		var reqs []*mpi.CollRequest
		for k, out := range outs {
			req, err := c.Iallreduce(mpi.Int64Bytes(in(k+1)), out, count, mpi.Int64, mpi.OpSum)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if reqs[0].Done() || reqs[0].SameSchedule(reqs[1]) {
			return fmt.Errorf("rank %d: the second Iallreduce was compiled into the first one's schedule", rank)
		}
		for k, req := range reqs {
			if err := req.Wait(); err != nil {
				return err
			}
			if !bytes.Equal(outs[k], want(k+1)) {
				return fmt.Errorf("rank %d: Iallreduce %d delivered the wrong sum", rank, k+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A steady-state blocking 4 KiB Allreduce on the 2+3 shape, every rank
// calling it after one warm-up call, allocates at most 12 times on the
// whole machine per call, counted over rank 0's window (10: the compilers'
// closures — a fold and the release of its lease at the end of its round
// allocate nothing; 98 when every message made its head, delivery, ch_mad
// header and request, and every call its builder and request; 232 when
// every call also made its schedule, round storage, countdown event and
// Madeleine message records anew).
func TestAllocBudgetAllreduce(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	var per float64
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		call := prepAllreduce(c, 4<<10)
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			if e := call(); e != nil {
				err = e
			}
		})
		if rank == 0 {
			per = allocs
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a steady-state Allreduce allocates %.0f times", per)
	if per > 12 {
		t.Errorf("a steady-state Allreduce allocates %.0f times, budget 12", per)
	}
}

// A warm 4 B Ssend round trip between two BIP nodes — rank 0 Ssends and
// receives the reply, rank 1 receives and Ssends it back — allocates at most
// 20 times on the whole machine, counted over rank 0's window (26 when
// every Ssend made its own request and completion event outside the
// engine's free list).
func TestAllocBudgetSsendRoundTrip(t *testing.T) {
	sess, err := cluster.Build(cluster.TwoNodes("bip"))
	if err != nil {
		t.Fatal(err)
	}
	var per float64
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		buf, peer := make([]byte, 4), 1-rank
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if rank == 1 {
				if _, e := c.Recv(buf, 4, mpi.Byte, peer, 3); e != nil {
					err = e
				}
			}
			if e := c.Ssend(buf, 4, mpi.Byte, peer, 3); e != nil {
				err = e
			}
			if rank == 0 {
				if _, e := c.Recv(buf, 4, mpi.Byte, peer, 3); e != nil {
					err = e
				}
			}
		})
		if rank == 0 {
			per = allocs
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a warm Ssend round trip allocates %.0f times", per)
	if per > 20 {
		t.Errorf("a warm Ssend round trip allocates %.0f times, budget 20", per)
	}
}

// One 16 KiB Allreduce on 4 clusters of 16 ranks makes at most 36 buffers of
// the session's list (32: a tree's leaves land their partials at their
// parents in the same instant, so half the ranks' partials are out at once;
// 64 when every child's partial was leased when its parent's schedule
// compiled and held until it ended).
func TestAllocBudgetScaleTreeAllreduce(t *testing.T) {
	sess, err := cluster.Build(experiments.ScaleTopo(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		return prepAllreduce(c, 16<<10)()
	})
	if err != nil {
		t.Fatal(err)
	}
	made := sess.Metrics.Get("netsim.bufs_made", "")
	t.Logf("one 16 KiB Allreduce on 4x16 ranks made %d buffers", made)
	if made > 36 {
		t.Errorf("one 16 KiB Allreduce on 4x16 ranks made %d buffers, budget 36", made)
	}
}
