package mpi_test

// Tests of the schedule-driven nonblocking collectives (Icoll): byte
// equivalence with the blocking API across randomized shapes, genuine
// compute/communication overlap in virtual time, multiple outstanding
// schedules, and the request plumbing (WaitAll statuses).

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mpichmad/internal/cluster"
	"mpichmad/internal/experiments"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// icollSuiteOutputs runs all seven collectives on a session of the shape —
// blocking when nb is false, as started-then-waited I-variants when nb is
// true — and returns every observable output buffer keyed by world rank for
// comparison. The session must pass the Finalize audit (sess.Run fails
// otherwise) and end with every buffer of its list home.
func icollSuiteOutputs(t *testing.T, sh fpShape, mode mpi.CollMode, nb bool,
	seed byte, count, rootSel int, op mpi.Op) map[string][]byte {
	t.Helper()
	sess, err := cluster.Build(sh.topo())
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	out := make(map[string][]byte)
	record := func(what string, rank int, buf []byte) {
		out[fmt.Sprintf("%s/r%d", what, rank)] = append([]byte(nil), buf...)
	}
	input := func(rank int) []int64 {
		v := make([]int64, count)
		for i := range v {
			v[i] = int64((int(seed)+rank*11+i*5)%9) - 4
		}
		return v
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if sh.island {
			sub, err := comm.Split(rank%2, rank)
			if err != nil {
				return err
			}
			comm = sub
		}
		n, me, root := comm.Size(), comm.Rank(), rootSel%comm.Size()
		// Bcast
		buf := make([]byte, 8*count)
		if me == root {
			copy(buf, mpi.Int64Bytes(input(rank)))
		}
		if nb {
			if err := wait(comm.Ibcast(buf, count, mpi.Int64, root)); err != nil {
				return err
			}
		} else if err := comm.Bcast(buf, count, mpi.Int64, root); err != nil {
			return err
		}
		record("bcast", rank, buf)
		// Reduce
		red := make([]byte, 8*count)
		if nb {
			if err := wait(comm.Ireduce(mpi.Int64Bytes(input(rank)), red, count, mpi.Int64, op, root)); err != nil {
				return err
			}
		} else if err := comm.Reduce(mpi.Int64Bytes(input(rank)), red, count, mpi.Int64, op, root); err != nil {
			return err
		}
		if me == root {
			record("reduce", rank, red)
		}
		// Allreduce
		all := make([]byte, 8*count)
		if nb {
			if err := wait(comm.Iallreduce(mpi.Int64Bytes(input(rank)), all, count, mpi.Int64, op)); err != nil {
				return err
			}
		} else if err := comm.Allreduce(mpi.Int64Bytes(input(rank)), all, count, mpi.Int64, op); err != nil {
			return err
		}
		record("allreduce", rank, all)
		// Gather
		gat := make([]byte, 8*count*n)
		if nb {
			if err := wait(comm.Igather(mpi.Int64Bytes(input(rank)), gat, count, mpi.Int64, root)); err != nil {
				return err
			}
		} else if err := comm.Gather(mpi.Int64Bytes(input(rank)), gat, count, mpi.Int64, root); err != nil {
			return err
		}
		if me == root {
			record("gather", rank, gat)
		}
		// Allgather
		ag := make([]byte, 8*count*n)
		if nb {
			if err := wait(comm.Iallgather(mpi.Int64Bytes(input(rank)), ag, count, mpi.Int64)); err != nil {
				return err
			}
		} else if err := comm.Allgather(mpi.Int64Bytes(input(rank)), ag, count, mpi.Int64); err != nil {
			return err
		}
		record("allgather", rank, ag)
		// Alltoall
		matrix := make([]int64, count*n)
		for i := range matrix {
			matrix[i] = int64((int(seed) + rank*17 + i) % 113)
		}
		a2a := make([]byte, 8*count*n)
		if nb {
			if err := wait(comm.Ialltoall(mpi.Int64Bytes(matrix), a2a, count, mpi.Int64)); err != nil {
				return err
			}
		} else if err := comm.Alltoall(mpi.Int64Bytes(matrix), a2a, count, mpi.Int64); err != nil {
			return err
		}
		record("alltoall", rank, a2a)
		// Barrier (observable only through completion)
		if nb {
			return wait(comm.Ibarrier())
		}
		return comm.Barrier()
	})
	if err != nil {
		t.Fatalf("%s: %v", sh.name, err)
	}
	if out := sess.Ranks[0].Eng.Bufs.Out(); out != 0 {
		t.Errorf("%s: %d buffers of the session's list still out at the end of the session", sh.name, out)
	}
	return out
}

// wait waits for a started Icoll.
func wait(req *mpi.CollRequest, err error) error {
	if err != nil {
		return err
	}
	return req.Wait()
}

// sameOutputs compares what the blocking forms and the I-forms left behind.
func sameOutputs(t *testing.T, what string, blocking, icoll map[string][]byte) bool {
	t.Helper()
	if len(blocking) != len(icoll) {
		t.Errorf("%s: output key sets differ: blocking %d, icoll %d", what, len(blocking), len(icoll))
		return false
	}
	for k, bv := range blocking {
		iv, ok := icoll[k]
		if !ok {
			t.Errorf("%s: icoll missing output %s", what, k)
			return false
		}
		if !bytes.Equal(bv, iv) {
			t.Errorf("%s: %s differs: blocking %v icoll %v", what, k, mpi.BytesInt64(bv), mpi.BytesInt64(iv))
			return false
		}
	}
	return true
}

// TestIcollMatchesBlocking: every I-collective, queued for the engine thread
// and waited on, produces byte-identical results to its blocking
// counterpart, which runs on its caller — for randomized two-cluster shapes,
// payload sizes, roots, ops and algorithm families, and on the four shapes
// of the schedule fingerprint two clusters cannot draw: the capped pair, the
// bridged triangle, one island and the islands' sub-communicators.
func TestIcollMatchesBlocking(t *testing.T) {
	modes := []mpi.CollMode{mpi.CollAuto, mpi.CollFlat, mpi.CollHier, mpi.CollHierMulti}
	ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd}
	f := func(seed, shapeA, shapeB, rootSel, opIdx, length, modeSel uint8) bool {
		nA := int(shapeA)%3 + 1
		nB := int(shapeB)%3 + 1
		sh := fpShape{name: fmt.Sprintf("%d+%d", nA, nB), topo: func() cluster.Topology { return twoClusterTopo(nA, nB) }}
		op := ops[int(opIdx)%len(ops)]
		count := int(length)%7 + 1
		mode := modes[int(modeSel)%len(modes)]
		what := fmt.Sprintf("shape %s root %d op %s count %d mode %d", sh.name, rootSel, op.Name(), count, mode)
		return sameOutputs(t, what,
			icollSuiteOutputs(t, sh, mode, false, seed, count, int(rootSel), op),
			icollSuiteOutputs(t, sh, mode, true, seed, count, int(rootSel), op))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range fpShapes {
		if !sh.island && !slices.Contains([]string{"4+4capped", "triangle", "single5"}, sh.name) {
			continue
		}
		for i, mode := range modes {
			what := fmt.Sprintf("shape %s mode %d", sh.name, mode)
			seed, root := byte(17*i+3), 2*i+1
			sameOutputs(t, what,
				icollSuiteOutputs(t, sh, mode, false, seed, 5, root, ops[i]),
				icollSuiteOutputs(t, sh, mode, true, seed, 5, root, ops[i]))
		}
	}
}

// TestIcollAlltoallHierFlatEquivalence: the new two-level Alltoall is
// byte-identical to the flat pairwise rotation on randomized two-cluster
// shapes (the last collective closing the hier/flat equivalence matrix).
func TestIcollAlltoallHierFlatEquivalence(t *testing.T) {
	f := func(seed, shapeA, shapeB, length uint8) bool {
		nA := int(shapeA)%3 + 1
		nB := int(shapeB)%3 + 1
		count := int(length)%5 + 1
		run := func(mode mpi.CollMode) map[int][]byte {
			sess, err := cluster.Build(twoClusterTopo(nA, nB))
			if err != nil {
				t.Fatal(err)
			}
			for _, rk := range sess.Ranks {
				rk.MPI.SetCollMode(mode)
			}
			got := make(map[int][]byte)
			n := nA + nB
			err = sess.Run(func(rank int, comm *mpi.Comm) error {
				send := make([]int64, count*n)
				for i := range send {
					send[i] = int64(int(seed) + rank*n*count + i)
				}
				recv := make([]byte, 8*count*n)
				if err := comm.Alltoall(mpi.Int64Bytes(send), recv, count, mpi.Int64); err != nil {
					return err
				}
				got[rank] = append([]byte(nil), recv...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		flat, hier := run(mpi.CollFlat), run(mpi.CollHier)
		for r, fv := range flat {
			if !bytes.Equal(fv, hier[r]) {
				t.Errorf("shape %d+%d count %d rank %d: alltoall differs: flat %v hier %v",
					nA, nB, count, r, mpi.BytesInt64(fv), mpi.BytesInt64(hier[r]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestIallreduceOverlapsCompute: virtual time proves the progress engine
// decouples collective progress from the application thread. A rank that
// starts an Iallreduce, runs a chunked compute loop (the shape of any
// real iteration loop: each chunk releases the single virtual CPU, so the
// engine's staging copies can interleave) for roughly the collective's
// duration and then waits must finish in well under the sum of the two,
// because the schedule's backbone transfers advance while the
// application computes.
func TestIallreduceOverlapsCompute(t *testing.T) {
	const count = 8 << 10 // 64 KB of int64 over the TCP backbone
	const chunks = 512    // compute-loop granularity
	elapsed := func(overlap bool, compute vtime.Duration) vtime.Duration {
		sess, err := cluster.Build(twoClusterTopo(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		var total vtime.Duration
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			in := make([]int64, count)
			for i := range in {
				in[i] = int64(rank + i)
			}
			computeLoop := func() {
				for i := 0; i < chunks; i++ {
					sess.Ranks[rank].Proc.Compute(compute / chunks)
				}
			}
			out := make([]byte, 8*count)
			start := sess.S.Now()
			if overlap {
				req, err := comm.Iallreduce(mpi.Int64Bytes(in), out, count, mpi.Int64, mpi.OpSum)
				if err != nil {
					return err
				}
				computeLoop()
				if err := req.Wait(); err != nil {
					return err
				}
			} else {
				if err := comm.Allreduce(mpi.Int64Bytes(in), out, count, mpi.Int64, mpi.OpSum); err != nil {
					return err
				}
				computeLoop()
			}
			if rank == 0 {
				total = sess.S.Now().Sub(start)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	collTime := elapsed(false, 0)
	compute := collTime // comparable compute so overlap is measurable
	serial := elapsed(false, compute)
	overlapped := elapsed(true, compute)
	t.Logf("allreduce=%v, +compute serial=%v, overlapped=%v", collTime, serial, overlapped)
	if overlapped >= serial {
		t.Fatalf("Iallreduce+compute (%v) not faster than blocking+compute (%v): no overlap", overlapped, serial)
	}
	// At least half the compute must have hidden behind the collective.
	if saved := serial - overlapped; saved < compute/2 {
		t.Errorf("only %v of %v compute overlapped the collective", saved, compute)
	}
}

// TestIcollMultipleOutstanding: several collectives on one communicator
// may be in flight at once; the engine executes them in submission order
// and each result is correct.
func TestIcollMultipleOutstanding(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		n := comm.Size()
		bc := make([]byte, 8)
		if rank == 1 {
			copy(bc, mpi.Int64Bytes([]int64{42}))
		}
		r1, err := comm.Ibcast(bc, 1, mpi.Int64, 1)
		if err != nil {
			return err
		}
		ar := make([]byte, 8)
		r2, err := comm.Iallreduce(mpi.Int64Bytes([]int64{int64(rank)}), ar, 1, mpi.Int64, mpi.OpSum)
		if err != nil {
			return err
		}
		r3, err := comm.Ibarrier()
		if err != nil {
			return err
		}
		// Wait out of submission order: completion must not depend on it.
		if err := r3.Wait(); err != nil {
			return err
		}
		if err := r1.Wait(); err != nil {
			return err
		}
		if err := r2.Wait(); err != nil {
			return err
		}
		if got := mpi.BytesInt64(bc)[0]; got != 42 {
			return fmt.Errorf("rank %d: bcast under outstanding ops = %d, want 42", rank, got)
		}
		want := int64(n * (n - 1) / 2)
		if got := mpi.BytesInt64(ar)[0]; got != want {
			return fmt.Errorf("rank %d: allreduce under outstanding ops = %d, want %d", rank, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIcollBadRootRejected: rooted collectives reject out-of-range roots
// (including negative ones) with a clean error on every rank.
func TestIcollBadRootRejected(t *testing.T) {
	sess, err := cluster.Build(nNodeTopo(2, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, 8)
		for _, root := range []int{-1, comm.Size()} {
			if _, err := comm.Ibcast(buf, 1, mpi.Int64, root); err == nil {
				return fmt.Errorf("Ibcast accepted root %d", root)
			}
			if err := comm.Reduce(buf, buf, 1, mpi.Int64, mpi.OpSum, root); err == nil {
				return fmt.Errorf("Reduce accepted root %d", root)
			}
			if _, err := comm.Igather(buf, buf, 1, mpi.Int64, root); err == nil {
				return fmt.Errorf("Igather accepted root %d", root)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollRequestTestDrivesProgress: a bare Test poll loop (the
// canonical MPI_Test pattern, no compute or blocking in between) must
// still complete the collective — Test is a progress call that yields
// the cooperative CPU to the engine.
func TestCollRequestTestDrivesProgress(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		out := make([]byte, 8)
		req, err := comm.Iallreduce(mpi.Int64Bytes([]int64{int64(rank + 1)}), out, 1, mpi.Int64, mpi.OpSum)
		if err != nil {
			return err
		}
		polls := 0
		for {
			done, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
			polls++
		}
		if got := mpi.BytesInt64(out)[0]; got != 10 {
			return fmt.Errorf("rank %d: allreduce via Test loop = %d, want 10 (after %d polls)", rank, got, polls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitAllStatuses: WaitAll returns one status per request, in order,
// with receive metadata filled in and nil for sends.
func TestWaitAllStatuses(t *testing.T) {
	_, err := cluster.Launch(nNodeTopo(3, "sisci"), func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			bufs := [][]byte{make([]byte, 8), make([]byte, 16)}
			r1, err := comm.Irecv(bufs[0], 1, mpi.Int64, 1, 7)
			if err != nil {
				return err
			}
			r2, err := comm.Irecv(bufs[1], 2, mpi.Int64, 2, 9)
			if err != nil {
				return err
			}
			sts, err := mpi.WaitAll(r1, r2)
			if err != nil {
				return err
			}
			if len(sts) != 2 {
				return fmt.Errorf("WaitAll returned %d statuses, want 2", len(sts))
			}
			if sts[0] == nil || sts[0].Source != 1 || sts[0].Tag != 7 || sts[0].Bytes != 8 {
				return fmt.Errorf("status[0] = %+v, want src=1 tag=7 bytes=8", sts[0])
			}
			if sts[1] == nil || sts[1].Source != 2 || sts[1].Tag != 9 || sts[1].Bytes != 16 {
				return fmt.Errorf("status[1] = %+v, want src=2 tag=9 bytes=16", sts[1])
			}
			return nil
		}
		vals := make([]int64, rank)
		for i := range vals {
			vals[i] = int64(rank)
		}
		sreq, err := comm.Isend(mpi.Int64Bytes(vals), rank, mpi.Int64, 0, 5+2*rank)
		if err != nil {
			return err
		}
		sts, err := mpi.WaitAll(sreq)
		if err != nil {
			return err
		}
		if sts[0] != nil {
			return fmt.Errorf("send status = %+v, want nil", sts[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A blocking collective runs on its caller, so a program of blocking
// collectives starts no engine thread on any communicator; the first Icoll
// on a communicator starts exactly one, and none follows however many more
// are issued. The count is the distance between the ids of two probe
// threads rank 0 starts before the first collective and after the last.
func TestOneProgressThreadPerComm(t *testing.T) {
	spawned := func(barriers, icolls int) int {
		sess, err := cluster.Build(twoClusterTopo(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		probe := func() int { return sess.Ranks[0].Proc.Spawn("probe", func() {}).ID() }
		var first, last int
		err = sess.Run(func(rank int, c *mpi.Comm) error {
			if rank == 0 {
				first = probe()
			}
			dup, err := c.Dup()
			if err != nil {
				return err
			}
			for i := 0; i < barriers+2*icolls; i++ {
				comm := c
				if i%2 == 1 {
					comm = dup
				}
				if i < barriers {
					err = comm.Barrier()
				} else {
					err = wait(comm.Ibarrier())
				}
				if err != nil {
					return err
				}
			}
			// Every rank is in or past its last collective: whatever it
			// spawns for one has been spawned.
			sess.Ranks[rank].Proc.Sleep(vtime.Millisecond)
			if rank == 0 {
				last = probe()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return last - first
	}
	// The probe itself, and with Icolls, per rank, the world's engine and
	// the Dup's.
	if got := spawned(25, 0); got != 1 {
		t.Errorf("25 barriers on two communicators spawn %d threads, want only the probe", got-1)
	}
	few, many := spawned(25, 1), spawned(25, 10)
	if want := 1 + 4*2; few != want || many != want {
		t.Errorf("one Ibarrier per communicator spawns %d threads and ten spawn %d, want %d",
			few-1, many-1, want-1)
	}
}

// A blocking collective issued while earlier ones are pending on its
// communicator queues behind them: a Barrier called with an Ibarrier in
// flight returns once the Ibarrier has completed. And one that runs on its
// caller holds the engine until it returns: an Ibarrier another thread of
// rank 0 issues meanwhile completes after it, on every rank.
func TestBlockingQueuesBehindPendingIcoll(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		req, err := c.Ibarrier()
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if !req.Done() {
			return fmt.Errorf("rank %d: a Barrier returned before the Ibarrier issued first", rank)
		}
		if err := req.Wait(); err != nil {
			return err
		}
		// Rank 0's helper issues its Ibarrier while rank 0's main is inside
		// a Barrier that waits for rank 3, which comes late.
		p := sess.Ranks[rank].Proc
		var icoll *mpi.CollRequest
		var ierr error
		issued := vtime.NewEvent(p.S, "test.issued")
		if rank == 0 {
			p.Spawn("helper", func() {
				p.Sleep(10 * vtime.Microsecond)
				icoll, ierr = c.Ibarrier()
				issued.Fire()
			})
		} else if rank == 3 {
			p.Sleep(vtime.Millisecond)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank != 0 {
			icoll, ierr = c.Ibarrier()
		} else if issued.Wait(); ierr == nil && icoll.Done() {
			return errors.New("rank 0: an Ibarrier issued during a Barrier on the caller completed before it")
		}
		return wait(icoll, ierr)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The engine thread is a daemon, so a collective nobody waits for does not
// hold the run once the ranks' mains have returned. On the world that
// changes nothing: the barrier of MPI_Finalize queues behind it on the same
// in-order engine, so it completes first. On another communicator it ends
// where the run ends — here a barrier on a Dup that rank 1 never joins: as
// live threads its three engines kept the pollers idling up to the virtual
// deadline, and the run ended in the DeadlineError that names them.
func TestUnwaitedIcollDoesNotHoldRun(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	onWorld, onDup := make([]*mpi.CollRequest, 4), make([]*mpi.CollRequest, 4)
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if onWorld[rank], err = c.Ibarrier(); err != nil || rank == 1 {
			return err
		}
		onDup[rank], err = dup.Ibarrier()
		return err
	})
	if err != nil {
		t.Fatalf("un-waited Ibarriers held the run: %v", err)
	}
	for rank := range onWorld {
		if !onWorld[rank].Done() {
			t.Errorf("rank %d: the world's un-waited Ibarrier did not complete before MPI_Finalize's", rank)
		}
		if rank != 1 && onDup[rank].Done() {
			t.Errorf("rank %d: a barrier rank 1 never joined completed", rank)
		}
	}
}

// At scale the rule is the paper's: a rank's threads are its application's
// and its pollers. On 64 clusters of 16 ranks the blocking collectives
// after the opening Barrier spawn no task at all, and one Iallreduce per
// rank spawns exactly one per rank, its world engine. (Rooted at rank 0, a
// cluster leader: a root elsewhere has its messages relayed by a gateway,
// which forwards each on a thread of its own, as in the paper.)
func TestScaleSpawnsProgressThreadsOnlyForIcoll(t *testing.T) {
	sess, err := cluster.Build(experiments.ScaleTopo(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	var opened, blocking, icoll int
	tasks := func() int { n, _ := sess.S.Counts(); return n }
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			opened = tasks()
		}
		send, recv := fpFill(rank, 64), make([]byte, 64*c.Size())
		for _, err := range []error{
			c.Bcast(send, 64, mpi.Byte, 0),
			c.Allreduce(send, recv[:64], 64, mpi.Byte, mpi.OpMax),
			c.Reduce(send, recv[:64], 64, mpi.Byte, mpi.OpSum, 0),
			c.Allgather(send[:1], recv[:c.Size()], 1, mpi.Byte),
			c.Barrier(),
		} {
			if err != nil {
				return err
			}
		}
		// Every rank has entered the last Barrier, so it has run all the
		// blocking collectives before it.
		if rank == 0 {
			blocking = tasks()
		}
		if err := wait(c.Iallreduce(send, recv[:64], 64, mpi.Byte, mpi.OpMax)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			icoll = tasks()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocking != opened {
		t.Errorf("blocking collectives on 1024 ranks spawned %d tasks, want none", blocking-opened)
	}
	if icoll-blocking != len(sess.Ranks) {
		t.Errorf("one Iallreduce per rank spawned %d tasks on %d ranks, want one per rank", icoll-blocking, len(sess.Ranks))
	}
}
