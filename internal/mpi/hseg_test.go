package mpi_test

// Tests of the segmented two-level Alltoall: the pipelined leader bundle
// exchange must stay byte-identical to the flat pairwise rotation, and it
// must actually segment (more, smaller backbone messages) when the
// payload is large enough.

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
// TCP rate: the contended-backbone regime the segmented Alltoall
// exchange targets (CollHier picks it only there).
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
// 2-cluster topology and returns every rank's receive vector plus the
// backbone message count.
func alltoallOn(t *testing.T, nA, nB int, mode mpi.CollMode, seed uint8, blockBytes int) (map[int][]byte, uint64) {
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
	return out, sess.Networks["wan"].Stats.Packets
}

// TestSegmentedAlltoallEquivalence: for random shapes and block sizes —
// including blocks big enough that CollHier picks the segmented exchange
// — the two-level result is byte-identical to the flat rotation.
func TestSegmentedAlltoallEquivalence(t *testing.T) {
	f := func(seed, shapeA, shapeB, sizeSel uint8) bool {
		nA := int(shapeA)%3 + 1
		nB := int(shapeB)%3 + 1
		// From tiny blocks up to 6 KB blocks: with nA+nB ranks the big end
		// crosses the 2*segment total-payload threshold, so the segmented
		// compiler is exercised (segment = 8 KB on this topology).
		sizes := []int{1, 97, 1 << 10, 6 << 10}
		blockBytes := sizes[int(sizeSel)%len(sizes)]
		flat, _ := alltoallOn(t, nA, nB, mpi.CollFlat, seed, blockBytes)
		hier, _ := alltoallOn(t, nA, nB, mpi.CollHier, seed, blockBytes)
		for r := range flat {
			if !bytes.Equal(flat[r], hier[r]) {
				t.Errorf("rank %d: seg/hier alltoall differs from flat (nA=%d nB=%d block=%d)",
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

// TestSegmentedAlltoallSegments: at a payload that triggers segmentation,
// the backbone carries more (smaller) messages than the two whole-bundle
// transfers of the unsegmented exchange — the pipelining signature.
func TestSegmentedAlltoallSegments(t *testing.T) {
	// 3+3 ranks, 6 KB blocks: each directed leader bundle is 3*3*6 KB =
	// 54 KB, far above the 8 KB segment; the whole-bundle form would send
	// exactly one wan message per directed leader pair.
	_, segPackets := alltoallOn(t, 3, 3, mpi.CollHier, 5, 6<<10)
	_, flatPackets := alltoallOn(t, 3, 3, mpi.CollFlat, 5, 6<<10)
	// Each eager segment is a head+body packet pair; 54 KB / (6 KB-block
	// segments of 6 KB, i.e. one block per segment) = 9 segments per
	// directed pair, so well above the unsegmented 2 messages (4-6
	// packets including the rendez-vous control traffic).
	if segPackets < 20 {
		t.Errorf("segmented exchange produced only %d wan packets; expected a segment train", segPackets)
	}
	t.Logf("wan packets: segmented 2level=%d flat=%d", segPackets, flatPackets)
}

// TestSegmentedAlltoallDatatypes: the segmented path respects non-trivial
// datatypes (vector layout round-trips through the packed exchange).
func TestSegmentedAlltoallDatatypes(t *testing.T) {
	const n = 4
	sess, err := cluster.Build(cappedTwoCluster(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHier)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		blockInts := 1024 // 8 KB blocks of int64: tickles the segment boundary
		send := make([]int64, n*blockInts)
		for i := range send {
			send[i] = int64(rank*1_000_000 + i)
		}
		recv := make([]byte, 8*n*blockInts)
		if err := comm.Alltoall(mpi.Int64Bytes(send), recv, blockInts, mpi.Int64); err != nil {
			return err
		}
		got := mpi.BytesInt64(recv)
		for src := 0; src < n; src++ {
			for i := 0; i < blockInts; i++ {
				want := int64(src*1_000_000 + rank*blockInts + i)
				if got[src*blockInts+i] != want {
					return fmt.Errorf("rank %d: block from %d elem %d = %d, want %d",
						rank, src, i, got[src*blockInts+i], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A zero-latency wire on the bridged triangle's three TCP bridges moves the
// worst routed leader pair, which sizes the backbone segment, to one that
// does not cross Myrinet: the segment is 7868 B, above BIP's 7168 B threshold
// on the routed leader pair c1 -> c0 -> a1. MPI_Init's 2level-seg Alltoall
// probe sent that pair's segments as rendez-vous bodies whose receives sit in
// a later round, and a1 and c1 waited on each other until the virtual
// deadline. Every leader pair's segments now stay eager on its route.
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
