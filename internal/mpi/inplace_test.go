package mpi_test

// Tests of collectives that land in place: for a dense datatype the packed
// vector a schedule finishes in is the user's receive buffer itself
// (schedBuilder.landing), so nothing is staged for it and nothing is
// unpacked at the end. The reference is the same call on a type that is not
// dense, which this cannot touch: it keeps its staging and its unpack.

import (
	"bytes"
	"fmt"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// paddedByte is one data byte in an extent of two: MPI_BYTE's layout twin
// that is not dense.
var paddedByte = mpi.Struct(2, []mpi.StructField{{Disp: 0, Len: 1}})

// byteMax is MPI_MAX over the bytes of any datatype's packed form, so that
// the reductions run on paddedByte too.
type byteMax struct{}

func (byteMax) Name() string { return "byteMax" }
func (byteMax) Apply(dst, src []byte, count int, dt mpi.Datatype) error {
	for i := range dst[:count*dt.Size()] {
		dst[i] = max(dst[i], src[i])
	}
	return nil
}

// spread lays packed bytes out as elements of dt (gaps filled with 0xEE) and
// squeeze reads them back; for mpi.Byte both are copies.
func spread(packed []byte, dt mpi.Datatype) []byte {
	buf := bytes.Repeat([]byte{0xEE}, len(packed)*dt.Extent())
	mpi.UnpackBuf(buf, len(packed), dt, packed)
	return buf
}

func squeeze(buf []byte, n int, dt mpi.Datatype) []byte {
	return bytes.Clone(mpi.PackBuf(buf, n, dt))
}

// inPlaceCalls runs Bcast, Allreduce, Allgather and Alltoall of per bytes
// per rank on elements of dt, each with distinct send and receive buffers
// and with one buffer passed as both, and returns the packed results in
// call order.
func inPlaceCalls(c *mpi.Comm, dt mpi.Datatype, per int) ([][]byte, error) {
	n, me := c.Size(), c.Rank()
	var results [][]byte
	for _, aliased := range []bool{false, true} {
		// recvFor returns the receive buffer of a call that sends send:
		// send itself, grown to total elements, or a fresh one.
		recvFor := func(send []byte, total int) (s, r []byte) {
			if !aliased {
				return send, spread(make([]byte, total), dt)
			}
			buf := spread(make([]byte, total), dt)
			copy(buf, send)
			return buf, buf
		}

		root := n - 1
		buf := spread(make([]byte, per), dt)
		if me == root {
			buf = spread(fpFill(root, per), dt)
		}
		if err := c.Bcast(buf, per, dt, root); err != nil {
			return nil, err
		}
		results = append(results, squeeze(buf, per, dt))

		send, recv := recvFor(spread(fpFill(me, per), dt), per)
		if err := c.Allreduce(send, recv, per, dt, byteMax{}); err != nil {
			return nil, err
		}
		results = append(results, squeeze(recv, per, dt))

		send, recv = recvFor(spread(fpFill(me, per), dt), per*n)
		if err := c.Allgather(send, recv, per, dt); err != nil {
			return nil, err
		}
		results = append(results, squeeze(recv, per*n, dt))

		send, recv = recvFor(spread(fpFill(me, per*n), dt), per*n)
		if err := c.Alltoall(send, recv, per, dt); err != nil {
			return nil, err
		}
		results = append(results, squeeze(recv, per*n, dt))
	}
	return results, nil
}

// Every form of the four operations gives, on a dense type, byte for byte
// what it gives on the padded one — send and receive buffers distinct or
// the same memory, eager payloads and rendez-vous ones.
func TestInPlaceMatchesStrided(t *testing.T) {
	shapes := []fpShape{fpShapes[0], fpShapes[3], fpShapes[4]} // 2+3, triangle, single5
	for _, sh := range shapes {
		for _, md := range fpModes {
			for _, per := range []int{7, 3000} {
				run := func(dt mpi.Datatype) [][][]byte {
					var byRank [][][]byte
					fpSession(t, sh, md.mode, false, func(c *mpi.Comm) error {
						if byRank == nil {
							byRank = make([][][]byte, c.Size())
						}
						res, err := inPlaceCalls(c, dt, per)
						byRank[c.Rank()] = res
						return err
					})
					return byRank
				}
				dense, padded := run(mpi.Byte), run(paddedByte)
				for r := range padded {
					for i := range padded[r] {
						if !bytes.Equal(dense[r][i], padded[r][i]) {
							t.Errorf("%s %s %d B: rank %d call %d (Bcast, Allreduce, Allgather, Alltoall; distinct, then aliased): the dense result differs from the padded type's",
								sh.name, md.name, per, r, i)
						}
					}
				}
			}
		}
	}
}

// A Reduce's receive buffer is significant at the root only: whatever a
// non-root passes, of whatever length, stays as it was.
func TestInPlaceReduceSparesNonRootRecv(t *testing.T) {
	const per = 3000
	for _, md := range fpModes {
		fpSession(t, fpShapes[0], md.mode, false, func(c *mpi.Comm) error {
			root := 1
			want := fpFill(0, per)
			for r := 1; r < c.Size(); r++ {
				mpi.OpMax.Apply(want, fpFill(r, per), per, mpi.Byte)
			}
			recv := bytes.Repeat([]byte{0xA5}, per)
			if err := c.Reduce(fpFill(c.Rank(), per), recv, per, mpi.Byte, mpi.OpMax, root); err != nil {
				return err
			}
			if c.Rank() == root {
				return delivered("Reduce", nil, recv, want)
			}
			if !bytes.Equal(recv, bytes.Repeat([]byte{0xA5}, per)) {
				return fmt.Errorf("%s: Reduce wrote the receive buffer of non-root rank %d", md.name, c.Rank())
			}
			return nil
		})
	}
}

// A rank that is a leaf of the reduction has nothing to stage: its
// accumulator is its receive buffer and it takes no partial from anyone.
// Staging is leased when the schedule compiles, so compiling the leaf's form
// counts it (the list is the session's: it holds the other ranks' leases too).
func TestInPlaceAllreduceLeafLeasesNothing(t *testing.T) {
	const per, leaf = 100000, 4
	for _, tc := range []struct {
		name, form string
		topo       cluster.Topology
		mode       mpi.CollMode
	}{
		{"flat on single5", "flat", nNodeTopo(5, "sisci"), mpi.CollFlat}, // rank 4 has no child in the binomial tree
		{"2level on 2+3", "2level", twoClusterTopo(2, 3), mpi.CollHier},  // rank 4 is the last member of its cluster
	} {
		sess, err := cluster.Build(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range sess.Ranks {
			rk.MPI.SetCollMode(tc.mode)
		}
		err = sess.Run(func(rank int, c *mpi.Comm) error {
			if rank == leaf {
				if leased := c.Leases("Allreduce", tc.form, fpFill(leaf, per), make([]byte, per), per, mpi.Byte); leased != 0 {
					return fmt.Errorf("the leaf's Allreduce leased %d staging buffers", leased)
				}
			}
			return prepAllreduce(c, per)()
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
