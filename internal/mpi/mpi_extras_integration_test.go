package mpi_test

import (
	"fmt"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

func TestSsendCompletesOnlyAfterMatch(t *testing.T) {
	// The receiver posts its receive 2 ms late; a synchronous send must
	// not complete before that, even for a tiny message.
	sess, err := cluster.Build(cluster.TwoNodes("sisci"))
	if err != nil {
		t.Fatal(err)
	}
	var sendDone, recvPosted vtime.Time
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			if err := comm.Ssend([]byte("x"), 1, mpi.Byte, 1, 0); err != nil {
				return err
			}
			sendDone = sess.S.Now()
			return nil
		}
		sess.Ranks[rank].Proc.Sleep(2 * vtime.Millisecond)
		recvPosted = sess.S.Now()
		_, err := comm.Recv(make([]byte, 1), 1, mpi.Byte, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < recvPosted {
		t.Fatalf("Ssend completed at %v, before the receive was posted at %v", sendDone, recvPosted)
	}
	// It was forced through the rendez-vous path.
	if sess.Ranks[0].ChMad.NRndv != 1 {
		t.Fatalf("Ssend did not use rendez-vous: rndv=%d", sess.Ranks[0].ChMad.NRndv)
	}
}

func TestSsendIntraNodeAndSelf(t *testing.T) {
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "smp", Procs: 2}},
		Networks: []cluster.NetworkSpec{
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"smp"}},
		},
	}
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	var done, posted vtime.Time
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			// smp_plug synchronous send.
			if err := comm.Ssend([]byte("ab"), 2, mpi.Byte, 1, 0); err != nil {
				return err
			}
			done = sess.S.Now()
			// ch_self synchronous send: post first to avoid deadlock.
			req, err := comm.Irecv(make([]byte, 2), 2, mpi.Byte, 0, 1)
			if err != nil {
				return err
			}
			if err := comm.Ssend([]byte("cd"), 2, mpi.Byte, 0, 1); err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		sess.Ranks[rank].Proc.Sleep(vtime.Millisecond)
		posted = sess.S.Now()
		_, err := comm.Recv(make([]byte, 2), 2, mpi.Byte, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if done < posted {
		t.Fatalf("smp Ssend completed at %v before match at %v", done, posted)
	}
}

func TestReduceScatter(t *testing.T) {
	const n = 4
	_, err := cluster.Launch(nNodeTopo(n, "bip"), func(rank int, comm *mpi.Comm) error {
		// ReduceScatter: each rank contributes vector [0,1,...,4n-1]
		// scaled by (rank+1); rank r receives block r of the sum.
		scale := int64(rank + 1)
		contrib := make([]int64, 2*n)
		for i := range contrib {
			contrib[i] = scale * int64(i)
		}
		rec := make([]byte, 8*2)
		if err := comm.ReduceScatter(mpi.Int64Bytes(contrib), rec, 2, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		sumScale := int64(n * (n + 1) / 2)
		got := mpi.BytesInt64(rec)
		for j := 0; j < 2; j++ {
			want := sumScale * int64(2*rank+j)
			if got[j] != want {
				return fmt.Errorf("reducescatter[%d] = %d, want %d", j, got[j], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommPackUnpack exercises the MPI_Pack/MPI_Unpack surface with a
// derived type.
func TestCommPackUnpack(t *testing.T) {
	_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		dt := mpi.Vector(3, 1, 2, mpi.Int32) // every other int32
		src := make([]byte, dt.Extent())
		for i := range src {
			src[i] = byte(i)
		}
		packed := comm.Pack(src, 1, dt)
		if len(packed) != dt.Size() {
			return fmt.Errorf("packed %d bytes, want %d", len(packed), dt.Size())
		}
		dst := make([]byte, dt.Extent())
		comm.Unpack(packed, dst, 1, dt)
		repacked := comm.Pack(dst, 1, dt)
		for i := range packed {
			if repacked[i] != packed[i] {
				return fmt.Errorf("pack/unpack roundtrip broken at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
