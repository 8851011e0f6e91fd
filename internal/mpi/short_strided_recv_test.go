package mpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// A receive's count is an upper bound. When fewer elements arrive than a
// derived-type receive posted, only those are unpacked: the strided
// buffer's tail elements (and its gaps) keep what the user had there. The
// landing buffer unpacked whole would zero them. Over the wire, at
// an eager and at a rendez-vous size (SCI switches at 8 KiB).
func TestShortMessageIntoStridedReceiveLeavesTailAlone(t *testing.T) {
	elem := mpi.Vector(2, 1, 2, mpi.Int32) // two Int32 of every three: Size 8, Extent 12
	for _, sent := range []int{1, 3000} {  // elements on the wire: 8 B eager, 24 000 B rendez-vous
		posted := sent + 2
		_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
			payload := make([]byte, sent*elem.Size())
			for i := range payload {
				payload[i] = byte(i%200 + 1)
			}
			if rank == 0 {
				return comm.Send(payload, 2*sent, mpi.Int32, 1, 5)
			}
			buf := bytes.Repeat([]byte{0xAA}, posted*elem.Extent())
			st, err := comm.Recv(buf, posted, elem, 0, 5)
			if err != nil {
				return err
			}
			if got := st.Count(elem); got != sent {
				return fmt.Errorf("Status.Count = %d, want %d", got, sent)
			}
			want := bytes.Repeat([]byte{0xAA}, len(buf))
			mpi.UnpackBuf(want, sent, elem, payload)
			for i := range buf {
				if buf[i] != want[i] {
					return fmt.Errorf("byte %d (element %d of %d sent, %d posted) = %#x, want %#x",
						i, i/elem.Extent(), sent, posted, buf[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%d elements sent: %v", sent, err)
		}
	}
}
