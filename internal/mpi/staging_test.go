package mpi_test

// Tests of the collective layer's staging: it is leased from the session's
// buffer list (adi.Engine.Bufs) when a schedule compiles and goes home when
// the schedule ends, so a collective in steady state allocates no
// payload-sized object; a schedule that ends in error keeps what it leased.
// go test poisons a list buffer when it is handed out fresh and when it is
// released (netsim.Buf), so every payload comparison in this package is
// also a check that no compiler leans on zeroed staging or reads it after
// the schedule has let go of it.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// stagingOps are the four collectives of the benchmark's grid. prepare makes
// the user buffers and the expected result of a ~payload-byte call once and
// returns the call, which allocates nothing of its own: it clears the
// receive buffer, runs the collective and compares.
var stagingOps = []struct {
	name    string
	prepare func(c *mpi.Comm, payload int) (call func() error)
}{
	{"Allreduce", prepAllreduce}, {"Bcast", prepBcast}, {"Allgather", prepAllgather}, {"Alltoall", prepAlltoall},
}

func prepAllreduce(c *mpi.Comm, payload int) func() error {
	in, out, want := fpFill(c.Rank(), payload), make([]byte, payload), fpFill(0, payload)
	for r := 1; r < c.Size(); r++ {
		mpi.OpMax.Apply(want, fpFill(r, payload), payload, mpi.Byte)
	}
	return func() error {
		clear(out)
		return delivered("Allreduce", c.Allreduce(in, out, payload, mpi.Byte, mpi.OpMax), out, want)
	}
}

func prepBcast(c *mpi.Comm, payload int) func() error {
	buf, want := make([]byte, payload), fpFill(1, payload)
	return func() error {
		clear(buf)
		if c.Rank() == 1 {
			copy(buf, want)
		}
		return delivered("Bcast", c.Bcast(buf, payload, mpi.Byte, 1), buf, want)
	}
}

func prepAllgather(c *mpi.Comm, payload int) func() error {
	per := payload / c.Size()
	in, out := fpFill(c.Rank(), per), make([]byte, per*c.Size())
	var want []byte
	for r := 0; r < c.Size(); r++ {
		want = append(want, fpFill(r, per)...)
	}
	return func() error {
		clear(out)
		return delivered("Allgather", c.Allgather(in, out, per, mpi.Byte), out, want)
	}
}

func prepAlltoall(c *mpi.Comm, payload int) func() error {
	per := payload / c.Size()
	in, out := fpFill(c.Rank(), per*c.Size()), make([]byte, per*c.Size())
	var want []byte
	for r := 0; r < c.Size(); r++ {
		want = append(want, fpFill(r, per*c.Size())[c.Rank()*per:(c.Rank()+1)*per]...)
	}
	return func() error {
		clear(out)
		return delivered("Alltoall", c.Alltoall(in, out, per, mpi.Byte), out, want)
	}
}

func delivered(what string, err error, got, want []byte) error {
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("%s delivered wrong bytes", what)
	}
	return err
}

// steadyCollBytes is what one more call allocates per rank on the 2+3 shape
// once a warm-up call has filled the buffer lists: the whole process's
// TotalAlloc across 50 calls between two barriers.
func steadyCollBytes(t *testing.T, mode mpi.CollMode, prepare func(*mpi.Comm, int) func() error, payload int) int {
	t.Helper()
	const calls = 50
	sess, err := cluster.Build(twoClusterTopo(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	var before, after runtime.MemStats
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		call := prepare(c, payload)
		for i := 0; i <= calls; i++ {
			if err := call(); err != nil {
				return err
			}
			if i > 0 && i < calls {
				continue
			}
			// Around the timed calls every rank is between the same two
			// collectives, so rank 0's reading covers whole calls of all.
			if err := c.Barrier(); err != nil {
				return err
			}
			if rank == 0 && i == 0 {
				runtime.ReadMemStats(&before)
			} else if rank == 0 {
				runtime.ReadMemStats(&after)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return int(after.TotalAlloc-before.TotalAlloc) / (calls * len(sess.Ranks))
}

// In steady state a collective allocates no staging: every buffer a
// schedule stages in already sits on the rank's list, so a call allocates
// less than its payload — steps, requests, events, packet heads — and a
// payload four times as large costs nowhere near four times as much. It
// does cost more: a body crosses the wire in more packets and a segmented
// form cuts it into more messages (~2 KB of descriptors per 8 KiB segment
// and rank), so the growth is bounded by a third of the payload's, where
// staging made per call grew with at least four fifths of it.
//
// The flat Allgather and Alltoall lease nothing on top: on a dense type, into
// a receive buffer apart from the send buffer, they assemble the result in
// the user's buffer. On a strided type, or an Alltoall into its own send
// buffer, it is one leased vector. The multi-leader Allgather lands every
// cluster's bundle in the user's buffer too, when the cluster is a run of
// consecutive ranks; otherwise — a strided type, the send buffer as the
// receive buffer, clusters that interleave — it stages one per cluster. A
// strided send buffer is packed into one lease as well (schedBuilder.packed).
//
// A reduction's partials that one reduce of their round reads are folds,
// leased when their message matches rather than when the schedule compiles:
// on a dense type the tree Allreduce and Reduce lease nothing at compile
// time on any rank, inner ranks of the tree included (one per child before),
// nor does the ring Allreduce (m−1 before); the ring ReduceScatter leases
// only the whole vector it accumulates in.
func TestCollectivesAllocateNoStaging(t *testing.T) {
	const payload = 256 << 10
	strided := mpi.Vector(2, 1, 2, mpi.Byte)
	checkLeases(t, "2+3", twoClusterTopo(2, 3), []leaseRow{
		{"Allreduce", "flat", mpi.Byte, false, 0},
		{"Reduce", "flat", mpi.Byte, false, 0},
		{"Allreduce", "ring", mpi.Byte, false, 0},
		{"ReduceScatter", "ring", mpi.Byte, false, 1},
		{"Allgather", "flat", mpi.Byte, false, 0},
		{"Alltoall", "flat", mpi.Byte, false, 0},
		{"Allgather", "flat", strided, false, 2},
		{"Alltoall", "flat", strided, false, 2},
		{"Alltoall", "flat", mpi.Byte, true, 1},
	})
	checkLeases(t, "triangle", triangleTopo(), []leaseRow{
		{"Allgather", "2level-multi", mpi.Byte, false, 0},
		{"Allgather", "2level-multi", strided, false, 4},
		{"Allgather", "2level-multi", mpi.Byte, true, 3},
	})
	interleaved := triangleTopo()
	n := interleaved.Nodes
	interleaved.Nodes = []cluster.NodeSpec{n[0], n[3], n[6], n[1], n[4], n[7], n[2], n[5], n[8]}
	checkLeases(t, "interleaved triangle", interleaved, []leaseRow{{"Allgather", "2level-multi", mpi.Byte, false, 3}})
	for _, md := range fpModes {
		for _, op := range stagingOps {
			small, big := steadyCollBytes(t, md.mode, op.prepare, payload/4), steadyCollBytes(t, md.mode, op.prepare, payload)
			if big >= payload || 3*(big-small) >= payload-payload/4 {
				t.Errorf("%s %s: a call allocates %d B per rank at %d B and %d B at %d B: staging is being made per call",
					md.name, op.name, small, payload/4, big, payload)
			}
		}
	}
}

// leaseRow is one compile checkLeases makes on every rank: the named form
// of op on 1000 elements of dt per rank, the receive buffer apart from the
// send buffer or the same memory, and the staging buffers it should lease.
type leaseRow struct {
	op, form string
	dt       mpi.Datatype
	aliased  bool
	want     int
}

func checkLeases(t *testing.T, shape string, topo cluster.Topology, rows []leaseRow) {
	t.Helper()
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		const per = 1000
		send, apart := make([]byte, 3*per*c.Size()), make([]byte, 3*per*c.Size())
		for _, tc := range rows {
			recv := apart
			if tc.aliased {
				recv = send
			}
			if got := c.Leases(tc.op, tc.form, send, recv, per, tc.dt); got != tc.want {
				return fmt.Errorf("%s: %s %s of %s, one buffer for both %v: %d buffers leased, want %d",
					shape, tc.form, tc.op, tc.dt.Name(), tc.aliased, got, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// prepStridedAllgather is prepAllgather on a strided type, two bytes of
// every three: a result that is not the user's layout, so the schedule
// assembles it in one leased vector and unpacks it at completion.
func prepStridedAllgather(c *mpi.Comm, per int) func() error {
	strided := mpi.Vector(2, 1, 2, mpi.Byte)
	ex := strided.Extent()
	in, out := fpFill(c.Rank(), per*ex), make([]byte, per*ex*c.Size())
	var want []byte
	for r := 0; r < c.Size(); r++ {
		blk := fpFill(r, per*ex)
		for i := 1; i < len(blk); i += ex {
			blk[i] = 0 // the gap the type skips: left as cleared
		}
		want = append(want, blk...)
	}
	return func() error {
		clear(out)
		return delivered("strided Allgather", c.Allgather(in, out, per, strided), out, want)
	}
}

// A schedule that ends in a send error keeps what it leased: a receive its
// failed round pre-posted may still land there. Rank 0 loses its route to
// rank 1 in the middle of a run and its next strided ring Allgather fails on
// the first send, with the two buffers it staged — its packed block and the
// vector — still out. A buffer that is out cannot be handed out again — a
// list hands out only what sits home or what it makes — so it is enough that
// the count stays: once every later collective of the same size has run,
// exactly those two are out of the session's list (shared by every rank, so
// read when all are done), and every one delivered the right bytes.
func TestFailedScheduleKeepsItsStaging(t *testing.T) {
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
		gather := prepStridedAllgather(c, per)
		if err := gather(); err != nil {
			return err
		}
		if rank == 0 {
			// Only rank 0 enters the doomed collective, on a communicator of
			// its own so that the world's sequence stays in step.
			rails := rk0.ChMad.Rails(1)
			rk0.ChMad.SetRails(1, nil)
			err := prepStridedAllgather(side, per)()
			rk0.ChMad.SetRails(1, rails)
			if err == nil {
				return fmt.Errorf("Allgather over a withdrawn route did not fail")
			}
		}
		for i := 0; i < 4; i++ {
			if err := gather(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := rk0.MPI.Eng.Bufs.Out(); out != 2 {
		t.Errorf("%d buffers out after the later Allgathers, want the failed schedule's 2", out)
	}
}

// A round that fails keeps the leases its folds took at match, as a failed
// schedule keeps its compile-time staging. Three ranks run the flat tree
// Allreduce with an op the datatype does not define: rank 0, the root, folds
// the partials of its two children, leaves of the tree, in one round, and
// that round fails on its first fold once both have landed. The leaves then
// wait for a broadcast that never comes, so the run ends in rank 0's error;
// the engine has dropped its round storage, nothing was released twice (that
// panics), and the session's list has exactly the root's two leases out: the
// leaves lease nothing on a dense type.
func TestFailedRoundKeepsItsLeases(t *testing.T) {
	const per = 1000
	sess, err := cluster.Build(nNodeTopo(3, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollFlat)
	}
	errFold := errors.New("the failed Allreduce")
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		in, out := make([]byte, 8*per), make([]byte, 8*per)
		err := c.Allreduce(in, out, per, mpi.Float64, mpi.OpBAnd)
		if rank != 0 {
			return err
		}
		if err == nil {
			return fmt.Errorf("MPI_BAND over MPI_DOUBLE did not fail")
		}
		if c.RoundStorage() != nil {
			return fmt.Errorf("the engine kept the round storage of a failed round")
		}
		return fmt.Errorf("%w: %v", errFold, err)
	})
	if !errors.Is(err, errFold) {
		t.Fatalf("the run ended in %v, want rank 0's failed Allreduce", err)
	}
	if out := sess.Ranks[0].MPI.Eng.Bufs.Out(); out != 2 {
		t.Errorf("%d buffers out after the failed round, want the root's 2 leased partials", out)
	}
}

// The one-cluster view a flat form compiles against depends on nothing but
// the communicator's size and the rank: it is built once per communicator.
func TestFlatFormsShareOneClusterView(t *testing.T) {
	sess, err := cluster.Build(nNodeTopo(5, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		bcast := prepBcast(c, 1000)
		if err := bcast(); err != nil {
			return err
		}
		first := c.FlatView()
		if err := bcast(); err != nil {
			return err
		}
		if first == nil || c.FlatView() != first {
			return fmt.Errorf("two flat Bcasts compiled against views %p and %p", first, c.FlatView())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One steady-state megabyte Allreduce on the 2+3 shape, all five ranks:
// B/op is what the call allocates beyond its payload.
func BenchmarkAllreduce1M(b *testing.B) {
	sess, err := cluster.Build(twoClusterTopo(2, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		call := prepAllreduce(c, 1<<20)
		if err := call(); err != nil {
			return err
		}
		if rank == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
