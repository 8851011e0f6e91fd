package mpi_test

// Tests of the two-level Alltoall on a capped backbone: the leaders' whole
// bundle exchange must stay byte-identical to the flat pairwise rotation
// whichever side of the eager thresholds its messages fall.

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
)

// cappedTwoCluster is twoClusterTopo with the wan trunk capped at the
// TCP rate: the contended-backbone regime of X4's Alltoall_2level_cap.
func cappedTwoCluster(nA, nB int) cluster.Topology {
	topo := twoClusterTopo(nA, nB)
	wan := netsim.FastEthernetTCP()
	wan.NetworkBandwidth = wan.Bandwidth
	for i := range topo.Networks {
		if topo.Networks[i].Name == "wan" {
			topo.Networks[i].Params = &wan
		}
	}
	return topo
}

// alltoallOn runs Alltoall under one collective mode on a capped
// 2-cluster topology and returns every rank's receive vector.
func alltoallOn(t *testing.T, nA, nB int, mode mpi.CollMode, seed uint8, blockBytes int) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte)
	sess, err := cluster.Build(cappedTwoCluster(nA, nB))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		n := comm.Size()
		send := make([]byte, n*blockBytes)
		for i := range send {
			send[i] = byte(int(seed) + rank*31 + i*7)
		}
		recv := make([]byte, n*blockBytes)
		if err := comm.Alltoall(send, recv, blockBytes, mpi.Byte); err != nil {
			return err
		}
		out[rank] = recv
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCappedTrunkAlltoallEquivalence: for random shapes and block sizes the
// two-level result is byte-identical to the flat rotation. The blocks sit on
// either side of SCI's 8 KiB and TCP's 64 KiB eager thresholds, so the
// members' matrices and the leaders' bundles travel eagerly and by
// rendez-vous.
func TestCappedTrunkAlltoallEquivalence(t *testing.T) {
	f := func(seed, shapeA, shapeB, sizeSel uint8) bool {
		nA := int(shapeA)%3 + 1
		nB := int(shapeB)%3 + 1
		sizes := []int{1, 97, 7 << 10, 9 << 10, 60 << 10, 68 << 10}
		blockBytes := sizes[int(sizeSel)%len(sizes)]
		flat := alltoallOn(t, nA, nB, mpi.CollFlat, seed, blockBytes)
		hier := alltoallOn(t, nA, nB, mpi.CollHier, seed, blockBytes)
		for r := range flat {
			if !bytes.Equal(flat[r], hier[r]) {
				t.Errorf("rank %d: 2level alltoall differs from flat (nA=%d nB=%d block=%d)",
					r, nA, nB, blockBytes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCappedTrunkAlltoallDatatypes: the two-level form respects a strided
// datatype. An element is two Int64 one apart, so a third of the receive
// buffer is gaps the exchange must leave untouched.
func TestCappedTrunkAlltoallDatatypes(t *testing.T) {
	const n, per = 4, 512 // 8 KiB packed blocks: SCI's eager threshold
	pair := mpi.Vector(2, 1, 2, mpi.Int64)
	sess, err := cluster.Build(cappedTwoCluster(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHier)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		send, recv := make([]int64, 3*n*per), make([]int64, 3*n*per)
		for i := range send {
			send[i], recv[i] = int64(rank*1_000_000+i), -1
		}
		buf := mpi.Int64Bytes(recv)
		if err := comm.Alltoall(mpi.Int64Bytes(send), buf, per, pair); err != nil {
			return err
		}
		got := mpi.BytesInt64(buf)
		for src := 0; src < n; src++ {
			for i := 0; i < 3*per; i++ {
				want := int64(src*1_000_000 + 3*rank*per + i)
				if i%3 == 1 {
					want = -1
				}
				if g := got[3*src*per+i]; g != want {
					return fmt.Errorf("rank %d: block from %d int %d = %d, want %d", rank, src, i, g, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroLatencyTriangleAlltoall: the bridged triangle with zero-latency
// TCP bridges, autotuned, completes MPI_Init's sweep and then an Alltoall.
// A zero-latency wire moves which routed leader pair is the worst one, and
// with it every pipeline size derived from the links; the form that once hung
// on it until the virtual deadline is gone, and this guards the rest.
func TestZeroLatencyTriangleAlltoall(t *testing.T) {
	topo := triangleTopo()
	topo.Autotune = true
	for i, ns := range topo.Networks {
		if ns.Protocol == "tcp" {
			p := netsim.FastEthernetTCP()
			p.WireLatency = 0
			topo.Networks[i].Params = &p
		}
	}
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	const count = 64
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		n := c.Size()
		send, recv := make([]byte, n*count), make([]byte, n*count)
		for i := range send {
			send[i] = byte(rank*31 + i)
		}
		if err := c.Alltoall(send, recv, count, mpi.Byte); err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			for i := 0; i < count; i++ {
				if want := byte(src*31 + rank*count + i); recv[src*count+i] != want {
					return fmt.Errorf("rank %d: byte %d from %d is %d, want %d", rank, i, src, recv[src*count+i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
