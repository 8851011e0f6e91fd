package mpi_test

// Property tests for the bandwidth-optimal ring schedules: for randomized
// cluster shapes, payload sizes and reduction ops, the ring Allreduce and
// ReduceScatter (flat and two-level) must be byte-identical to the flat
// binomial references computed from the same inputs.

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// ringInput derives a deterministic per-rank int64 vector from a seed.
func ringInput(seed uint8, rank, cnt int) []int64 {
	v := make([]int64, cnt)
	for i := range v {
		v[i] = int64((int(seed)+rank*11+i*5)%9) - 4 // small: keeps OpProd in range
	}
	return v
}

// allreduceOn runs Allreduce under one collective mode on a 2-cluster
// topology and returns every rank's packed result.
func allreduceOn(t *testing.T, nA, nB int, mode mpi.CollMode, seed uint8, cnt int, op mpi.Op) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte)
	sess, err := cluster.Build(twoClusterTopo(nA, nB))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		res := make([]byte, 8*cnt)
		if err := comm.Allreduce(mpi.Int64Bytes(ringInput(seed, rank, cnt)), res, cnt, mpi.Int64, op); err != nil {
			return err
		}
		out[rank] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRingAllreduceEquivalence: the flat ring and the two-level ring
// produce byte-identical Allreduce results to the flat binomial tree, for
// randomized shapes, ops and counts (including counts smaller than the
// ring's block count, which leaves some blocks empty).
func TestRingAllreduceEquivalence(t *testing.T) {
	ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd}
	f := func(seed, shapeA, shapeB, opIdx, length uint8) bool {
		nA := int(shapeA)%4 + 1
		nB := int(shapeB)%4 + 1
		op := ops[int(opIdx)%len(ops)]
		cnt := int(length)%23 + 1
		flat := allreduceOn(t, nA, nB, mpi.CollFlat, seed, cnt, op)
		for _, mode := range []mpi.CollMode{mpi.CollRing, mpi.CollHierRing} {
			got := allreduceOn(t, nA, nB, mode, seed, cnt, op)
			for rank, want := range flat {
				if string(got[rank]) != string(want) {
					t.Errorf("shape %d+%d op %s count %d mode %v rank %d: ring %v, flat %v",
						nA, nB, op.Name(), cnt, mode, rank,
						mpi.BytesInt64(got[rank]), mpi.BytesInt64(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestRingReduceScatterEquivalence: ReduceScatter through the ring
// schedules (flat and two-level) equals the sequential reference fold on
// every rank's own block.
func TestRingReduceScatterEquivalence(t *testing.T) {
	ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin}
	f := func(seed, shapeA, shapeB, opIdx, length uint8) bool {
		nA := int(shapeA)%4 + 1
		nB := int(shapeB)%4 + 1
		n := nA + nB
		op := ops[int(opIdx)%len(ops)]
		per := int(length)%7 + 1

		// Sequential reference: fold all ranks' full vectors.
		ref := mpi.Int64Bytes(ringInput(seed, 0, per*n))
		for r := 1; r < n; r++ {
			if err := op.Apply(ref, mpi.Int64Bytes(ringInput(seed, r, per*n)), per*n, mpi.Int64); err != nil {
				t.Error(err)
				return false
			}
		}
		want := mpi.BytesInt64(ref)

		// CollFlat/CollHier map to the ring of the same level (ReduceScatter
		// has no tree compiler), so all four modes must agree.
		for _, mode := range []mpi.CollMode{mpi.CollRing, mpi.CollHierRing, mpi.CollFlat, mpi.CollHier} {
			sess, err := cluster.Build(twoClusterTopo(nA, nB))
			if err != nil {
				t.Fatal(err)
			}
			for _, rk := range sess.Ranks {
				rk.MPI.SetCollMode(mode)
			}
			err = sess.Run(func(rank int, comm *mpi.Comm) error {
				res := make([]byte, 8*per)
				if err := comm.ReduceScatter(mpi.Int64Bytes(ringInput(seed, rank, per*n)), res, per, mpi.Int64, op); err != nil {
					return err
				}
				got := mpi.BytesInt64(res)
				for i := 0; i < per; i++ {
					if got[i] != want[rank*per+i] {
						return fmt.Errorf("rank %d mode %v: block[%d] = %d, want %d",
							rank, mode, i, got[i], want[rank*per+i])
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestIreduceScatterOverlap: the nonblocking variant completes correctly
// with computation between start and Wait, and the computation hides the
// communication. One unchunked Compute as long as the blocking call must
// end, Wait included, within the blocking time plus half the compute on
// every rank: the schedule's charges preempt it instead of queueing behind
// all of it. The blocks are 64 KiB, so the wire sets most of the blocking
// time. At 8 elements the collective's own charges keep a rank's CPU busy
// 55 of the call's 66 µs, and no schedule of one CPU fits them and the
// compute within the bound.
func TestIreduceScatterOverlap(t *testing.T) {
	const n, per = 4, 8 << 10
	run := func(compute vtime.Duration) (last vtime.Duration) {
		sess, err := cluster.Build(nNodeTopo(n, "sisci"))
		if err != nil {
			t.Fatal(err)
		}
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			in := make([]int64, per*n)
			for i := range in {
				in[i] = int64(rank + i)
			}
			res := make([]byte, 8*per)
			start := sess.S.Now()
			req, err := comm.IreduceScatter(mpi.Int64Bytes(in), res, per, mpi.Int64, mpi.OpSum)
			if err != nil {
				return err
			}
			sess.Ranks[rank].Proc.Compute(compute)
			if err := req.Wait(); err != nil {
				return err
			}
			last = max(last, sess.S.Now().Sub(start))
			got := mpi.BytesInt64(res)
			for i := 0; i < per; i++ {
				// sum over ranks of (rank + rank*per + i)
				want := int64(0)
				for r := 0; r < n; r++ {
					want += int64(r + rank*per + i)
				}
				if got[i] != want {
					return fmt.Errorf("rank %d: [%d] = %d, want %d", rank, i, got[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return last
	}
	blocking := run(0)
	overlapped := run(blocking)
	t.Logf("blocking %v, beside a compute of as long %v", blocking, overlapped)
	if overlapped > blocking+blocking/2 {
		t.Errorf("IreduceScatter beside a compute of %v took %v, more than the blocking time plus half the compute (%v)",
			blocking, overlapped, blocking+blocking/2)
	}
}
