package mpi_test

// Property-based tests of the collective operations: for random rank
// counts, payloads and operations, the distributed result must equal a
// naive sequential reference computed from the same inputs.

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// TestAllreduceMatchesReference: Allreduce(op) over random int64 vectors
// equals the sequential fold, for every rank count 2..6 and op.
func TestAllreduceMatchesReference(t *testing.T) {
	ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd}
	f := func(seed uint8, nRanks, opIdx, length uint8) bool {
		n := int(nRanks%5) + 2
		op := ops[int(opIdx)%len(ops)]
		cnt := int(length%6) + 1

		// Deterministic per-rank inputs derived from the seed.
		input := func(rank int) []int64 {
			v := make([]int64, cnt)
			for i := range v {
				// Small values keep OpProd in range.
				v[i] = int64((int(seed)+rank*7+i*3)%7) - 3
			}
			return v
		}
		// Sequential reference.
		ref := mpi.Int64Bytes(input(0))
		for r := 1; r < n; r++ {
			if err := op.Apply(ref, mpi.Int64Bytes(input(r)), cnt, mpi.Int64); err != nil {
				t.Error(err)
				return false
			}
		}
		want := mpi.BytesInt64(ref)

		ok := true
		_, err := cluster.Launch(nNodeTopo(n, "sisci"), func(rank int, comm *mpi.Comm) error {
			out := make([]byte, 8*cnt)
			if err := comm.Allreduce(mpi.Int64Bytes(input(rank)), out, cnt, mpi.Int64, op); err != nil {
				return err
			}
			got := mpi.BytesInt64(out)
			for i := range want {
				if got[i] != want[i] {
					ok = false
					return fmt.Errorf("rank %d: %s[%d] = %d, want %d", rank, op.Name(), i, got[i], want[i])
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBcastGatherRoundtripProperty: Bcast then Gather over random payloads
// and roots is the identity on the data.
func TestBcastGatherRoundtripProperty(t *testing.T) {
	f := func(seed uint8, nRanks, rootSel, size uint8) bool {
		n := int(nRanks%5) + 2
		root := int(rootSel) % n
		sz := int(size)%300 + 1
		_, err := cluster.Launch(nNodeTopo(n, "tcp"), func(rank int, comm *mpi.Comm) error {
			buf := make([]byte, sz)
			if rank == root {
				for i := range buf {
					buf[i] = byte(int(seed) + i)
				}
			}
			if err := comm.Bcast(buf, sz, mpi.Byte, root); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(int(seed)+i) {
					return fmt.Errorf("rank %d: bcast byte %d wrong", rank, i)
				}
			}
			// Everyone contributes (rank ^ payload) bytes; root checks.
			mine := make([]byte, sz)
			for i := range mine {
				mine[i] = buf[i] ^ byte(rank)
			}
			gat := make([]byte, sz*n)
			if err := comm.Gather(mine, gat, sz, mpi.Byte, root); err != nil {
				return err
			}
			if rank == root {
				for r := 0; r < n; r++ {
					for i := 0; i < sz; i++ {
						if gat[r*sz+i] != byte(int(seed)+i)^byte(r) {
							return fmt.Errorf("gather block %d byte %d wrong", r, i)
						}
					}
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// twoClusterTopo builds the adversarial heterogeneous shape for the
// hierarchy tests: two SCI islands joined by a TCP backbone, with node
// declarations interleaved so consecutive ranks alternate clusters (the
// worst case for a topology-blind binomial tree).
func twoClusterTopo(nA, nB int) cluster.Topology {
	var nodes []cluster.NodeSpec
	var aNodes, bNodes, all []string
	for i := 0; i < nA || i < nB; i++ {
		if i < nA {
			name := fmt.Sprintf("a%d", i)
			nodes = append(nodes, cluster.NodeSpec{Name: name, Procs: 1})
			aNodes = append(aNodes, name)
			all = append(all, name)
		}
		if i < nB {
			name := fmt.Sprintf("b%d", i)
			nodes = append(nodes, cluster.NodeSpec{Name: name, Procs: 1})
			bNodes = append(bNodes, name)
			all = append(all, name)
		}
	}
	return cluster.Topology{
		Nodes: nodes,
		Networks: []cluster.NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: aNodes},
			{Name: "sciB", Protocol: "sisci", Nodes: bNodes},
			{Name: "wan", Protocol: "tcp", Nodes: all},
		},
	}
}

// collectiveOutputs runs the full collective suite once on a two-cluster
// session with the given algorithm selection forced, and returns every
// observable output buffer, keyed for comparison.
func collectiveOutputs(t *testing.T, nA, nB int, mode mpi.CollMode,
	seed byte, count, root int, op mpi.Op) map[string][]byte {
	t.Helper()
	n := nA + nB
	sess, err := cluster.Build(twoClusterTopo(nA, nB))
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Hierarchy().NumClusters(); got != 2 {
		t.Fatalf("expected 2 clusters, discovered %d", got)
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
			v[i] = int64((int(seed)+rank*11+i*5)%9) - 4 // small: OpProd stays exact
		}
		return v
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		// Bcast
		buf := make([]byte, 8*count)
		if rank == root {
			copy(buf, mpi.Int64Bytes(input(rank)))
		}
		if err := comm.Bcast(buf, count, mpi.Int64, root); err != nil {
			return err
		}
		record("bcast", rank, buf)
		// Reduce
		red := make([]byte, 8*count)
		if err := comm.Reduce(mpi.Int64Bytes(input(rank)), red, count, mpi.Int64, op, root); err != nil {
			return err
		}
		if rank == root {
			record("reduce", rank, red)
		}
		// Allreduce
		all := make([]byte, 8*count)
		if err := comm.Allreduce(mpi.Int64Bytes(input(rank)), all, count, mpi.Int64, op); err != nil {
			return err
		}
		record("allreduce", rank, all)
		// Gather
		gat := make([]byte, 8*count*n)
		if err := comm.Gather(mpi.Int64Bytes(input(rank)), gat, count, mpi.Int64, root); err != nil {
			return err
		}
		if rank == root {
			record("gather", rank, gat)
		}
		// Allgather
		ag := make([]byte, 8*count*n)
		if err := comm.Allgather(mpi.Int64Bytes(input(rank)), ag, count, mpi.Int64); err != nil {
			return err
		}
		record("allgather", rank, ag)
		// Barrier (observable only through completion)
		return comm.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHierFlatEquivalence: for randomized cluster shapes, payload sizes,
// roots and reduction ops, the two-level collectives produce byte-identical
// results to the flat reference algorithms.
func TestHierFlatEquivalence(t *testing.T) {
	f := func(seed, shapeA, shapeB, rootSel, opIdx, length uint8) bool {
		ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd}
		nA := int(shapeA)%3 + 1
		nB := int(shapeB)%3 + 1
		root := int(rootSel) % (nA + nB)
		op := ops[int(opIdx)%len(ops)]
		count := int(length)%7 + 1
		flat := collectiveOutputs(t, nA, nB, mpi.CollFlat, byte(seed), count, root, op)
		hier := collectiveOutputs(t, nA, nB, mpi.CollHier, byte(seed), count, root, op)
		if len(flat) != len(hier) {
			t.Errorf("output key sets differ: flat %d, hier %d", len(flat), len(hier))
			return false
		}
		for k, fv := range flat {
			hv, ok := hier[k]
			if !ok {
				t.Errorf("hier missing output %s", k)
				return false
			}
			if string(fv) != string(hv) {
				t.Errorf("shape %d+%d root %d op %s count %d: %s differs: flat %v hier %v",
					nA, nB, root, op.Name(), count, k, mpi.BytesInt64(fv), mpi.BytesInt64(hv))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestHierSegmentedBcastLarge: a payload well past the rendez-vous switch
// point takes the segmented pipeline; the received bytes must survive the
// store-and-forward re-segmentation on every rank.
func TestHierSegmentedBcastLarge(t *testing.T) {
	const sz = 192 << 10 // > 2 segments at the 8 KB backbone segment
	sess, err := cluster.Build(twoClusterTopo(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, sz)
		if rank == 1 { // non-leader root exercises the root-as-leader remap
			for i := range buf {
				buf[i] = byte(i * 31 / 7)
			}
		}
		if err := comm.Bcast(buf, sz, mpi.Byte, 1); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i*31/7) {
				return fmt.Errorf("rank %d: byte %d corrupted after segmented bcast", rank, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierSplitSubComm: hierarchy awareness must survive Comm.Split — a
// sub-communicator spanning both islands still reduces correctly through
// its own dense leader structure.
func TestHierSplitSubComm(t *testing.T) {
	sess, err := cluster.Build(twoClusterTopo(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHier)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		sub, err := comm.Split(rank%2, rank)
		if err != nil {
			return err
		}
		out := make([]byte, 8)
		if err := sub.Allreduce(mpi.Int64Bytes([]int64{int64(rank)}), out, 1, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		var want int64
		for r := rank % 2; r < comm.Size(); r += 2 {
			want += int64(r)
		}
		if got := mpi.BytesInt64(out)[0]; got != want {
			return fmt.Errorf("rank %d: sub-comm allreduce = %d, want %d", rank, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallInverseProperty: Alltoall applied twice with transposed
// writes restores the original matrix row.
func TestAlltoallInverseProperty(t *testing.T) {
	f := func(seed uint8, nRanks uint8) bool {
		n := int(nRanks%4) + 2
		_, err := cluster.Launch(nNodeTopo(n, "sisci"), func(rank int, comm *mpi.Comm) error {
			orig := make([]int64, n)
			for k := range orig {
				orig[k] = int64(int(seed) + rank*n + k)
			}
			first := make([]byte, 8*n)
			if err := comm.Alltoall(mpi.Int64Bytes(orig), first, 1, mpi.Int64); err != nil {
				return err
			}
			second := make([]byte, 8*n)
			if err := comm.Alltoall(first, second, 1, mpi.Int64); err != nil {
				return err
			}
			got := mpi.BytesInt64(second)
			for k := range orig {
				if got[k] != orig[k] {
					return fmt.Errorf("rank %d: alltoall^2 not identity at %d", rank, k)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
