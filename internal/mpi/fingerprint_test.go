package mpi_test

// The schedule fingerprint: the pin a refactor of the collective compilers
// is judged by. The equivalence property tests prove every algorithm
// delivers the right bytes; they cannot see a schedule that delivers the
// right bytes by a different route. The simulator is deterministic, so the
// final virtual time plus the per-network packet and byte counts of a
// session that runs exactly one collective identify its compiled schedule
// for all practical purposes — any changed peer, payload, round boundary or
// CPU charge moves at least one of them. Every operation × forced mode ×
// payload × root × topology shape is recorded in testdata/fingerprints.txt
// and must regenerate unchanged.
//
// To re-record after an intended schedule change: delete the file and run
// the test once (it writes the file and fails, naming it).

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

const fingerprintFile = "testdata/fingerprints.txt"

// triangleTopo is the bridged triangle: three islands of three ranks, each
// pair of islands joined by its own TCP bridge between two gateway nodes,
// no shared backbone — routed (Forwarding) and multi-gateway, so leader
// sets have two co-leaders and the 2level-multi forms run for real.
func triangleTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "a0", Procs: 1}, {Name: "a1", Procs: 1}, {Name: "a2", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 1}, {Name: "b2", Procs: 1},
			{Name: "c0", Procs: 1}, {Name: "c1", Procs: 1}, {Name: "c2", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1", "a2"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"b0", "b1", "b2"}},
			{Name: "myriC", Protocol: "bip", Nodes: []string{"c0", "c1", "c2"}},
			{Name: "gwAB", Protocol: "tcp", Nodes: []string{"a2", "b1"}},
			{Name: "gwBC", Protocol: "tcp", Nodes: []string{"b2", "c1"}},
			{Name: "gwCA", Protocol: "tcp", Nodes: []string{"a1", "c0"}},
		},
		Forwarding: true,
	}
}

// fpShape is one topology the fingerprint covers. island, when set, makes
// every rank run its collectives on a Split sub-communicator holding only
// its own island's ranks (twoClusterTopo interleaves the islands, so the
// color is the rank's parity).
type fpShape struct {
	name   string
	topo   func() cluster.Topology
	island bool
}

var fpShapes = []fpShape{
	{name: "2+3", topo: func() cluster.Topology { return twoClusterTopo(2, 3) }},
	{name: "4+4", topo: func() cluster.Topology { return twoClusterTopo(4, 4) }},
	{name: "4+4capped", topo: func() cluster.Topology { return cappedTwoCluster(4, 4) }},
	{name: "triangle", topo: triangleTopo},
	{name: "single5", topo: func() cluster.Topology { return nNodeTopo(5, "sisci") }},
	{name: "4+4island", topo: func() cluster.Topology { return twoClusterTopo(4, 4) }, island: true},
}

var fpModes = []struct {
	name string
	mode mpi.CollMode
}{
	{"auto", mpi.CollAuto}, {"flat", mpi.CollFlat}, {"hier", mpi.CollHier},
	{"ring", mpi.CollRing}, {"hierring", mpi.CollHierRing}, {"hiermulti", mpi.CollHierMulti},
}

var fpSizes = []int{1, 5000, 300000}

// fpOp runs one collective whose principal buffer is ~payload bytes: the
// whole vector for Bcast/Reduce/Allreduce, split evenly over the ranks for
// the gather and all-to-all families.
type fpOp struct {
	name   string
	rooted bool
	sized  bool
	run    func(c *mpi.Comm, payload, root int) error
}

// fpFill returns n deterministic non-zero bytes that differ per rank.
func fpFill(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + (rank*31+i*7)%250)
	}
	return b
}

func fpPer(c *mpi.Comm, payload int) int {
	if per := payload / c.Size(); per > 0 {
		return per
	}
	return 1
}

var fpOps = []fpOp{
	{name: "Barrier", run: func(c *mpi.Comm, _, _ int) error { return c.Barrier() }},
	{name: "Bcast", rooted: true, sized: true, run: func(c *mpi.Comm, payload, root int) error {
		return c.Bcast(fpFill(root, payload), payload, mpi.Byte, root)
	}},
	{name: "Reduce", rooted: true, sized: true, run: func(c *mpi.Comm, payload, root int) error {
		return c.Reduce(fpFill(c.Rank(), payload), make([]byte, payload), payload, mpi.Byte, mpi.OpMax, root)
	}},
	{name: "Allreduce", sized: true, run: func(c *mpi.Comm, payload, _ int) error {
		return c.Allreduce(fpFill(c.Rank(), payload), make([]byte, payload), payload, mpi.Byte, mpi.OpMax)
	}},
	{name: "Gather", rooted: true, sized: true, run: func(c *mpi.Comm, payload, root int) error {
		per := fpPer(c, payload)
		return c.Gather(fpFill(c.Rank(), per), make([]byte, per*c.Size()), per, mpi.Byte, root)
	}},
	{name: "Allgather", sized: true, run: func(c *mpi.Comm, payload, _ int) error {
		per := fpPer(c, payload)
		return c.Allgather(fpFill(c.Rank(), per), make([]byte, per*c.Size()), per, mpi.Byte)
	}},
	{name: "Alltoall", sized: true, run: func(c *mpi.Comm, payload, _ int) error {
		per := fpPer(c, payload)
		return c.Alltoall(fpFill(c.Rank(), per*c.Size()), make([]byte, per*c.Size()), per, mpi.Byte)
	}},
	{name: "ReduceScatter", sized: true, run: func(c *mpi.Comm, payload, _ int) error {
		per := fpPer(c, payload)
		return c.ReduceScatter(fpFill(c.Rank(), per*c.Size()), make([]byte, per), per, mpi.Byte, mpi.OpMax)
	}},
}

// fpSession runs body on every rank of a fresh session of the shape (on
// the island sub-communicator when the shape asks for one) and renders the
// session's fingerprint: final virtual time, then packets/bytes per
// network in name order. Every session must also end with each rank's
// buffer list whole: a stash or a staging lease still out after a clean
// run is a leak.
func fpSession(t *testing.T, sh fpShape, mode mpi.CollMode, autotune bool, body func(c *mpi.Comm) error) (string, *cluster.Session) {
	t.Helper()
	topo := sh.topo()
	topo.Autotune = autotune
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if sh.island {
			sub, err := comm.Split(rank%2, rank)
			if err != nil {
				return err
			}
			comm = sub
		}
		return body(comm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := sess.Ranks[0].Eng.Bufs.Out(); out != 0 {
		t.Errorf("%s: %d buffers of the session's list still out at the end of the session", sh.name, out)
	}
	names := make([]string, 0, len(sess.Networks))
	for n := range sess.Networks {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%d", int64(sess.S.Now()))
	for _, n := range names {
		st := sess.Networks[n].Stats
		fmt.Fprintf(&sb, " %s=%d/%d", n, st.Packets, st.Bytes)
	}
	return sb.String(), sess
}

// fingerprintLines regenerates the whole fingerprint, one line per session.
func fingerprintLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, sh := range fpShapes {
		for _, md := range fpModes {
			for _, op := range fpOps {
				for si, size := range fpSizes {
					if !op.sized && si > 0 {
						continue
					}
					for ri := 0; ri < 2; ri++ {
						if !op.rooted && ri > 0 {
							continue
						}
						op, size, last := op, size, ri == 1
						fp, _ := fpSession(t, sh, md.mode, false, func(c *mpi.Comm) error {
							root := 0
							if last {
								root = c.Size() - 1
							}
							return op.run(c, size, root)
						})
						rootName := "root0"
						if last {
							rootName = "rootN"
						}
						lines = append(lines, fmt.Sprintf("%s %s %s %dB %s: %s", sh.name, md.name, op.name, size, rootName, fp))
					}
				}
			}
		}
		// One autotuned session per shape: the init sweep (its probe order
		// and virtual cost), the installed table, and every operation
		// dispatched through it at every size.
		fp, sess := fpSession(t, sh, mpi.CollAuto, true, func(c *mpi.Comm) error {
			for _, op := range fpOps {
				for si, size := range fpSizes {
					if !op.sized && si > 0 {
						continue
					}
					if err := op.run(c, size, c.Size()-1); err != nil {
						return err
					}
				}
			}
			return nil
		})
		lines = append(lines, fmt.Sprintf("%s autotuned all: %s", sh.name, fp))
		for _, tc := range sess.Ranks[0].MPI.TuneSnapshot() {
			// The open bracket's bound is math.MaxInt, which is not the same
			// number on every GOARCH: it prints as inf.
			bound := fmt.Sprint(tc.MaxBytes)
			if tc.MaxBytes == math.MaxInt {
				bound = "inf"
			}
			lines = append(lines, fmt.Sprintf("%s autotuned table: %s <=%s %s", sh.name, tc.Op, bound, tc.Algo))
		}
	}
	return lines
}

func TestScheduleFingerprint(t *testing.T) {
	got := fingerprintLines(t)
	raw, err := os.ReadFile(fingerprintFile)
	if os.IsNotExist(err) {
		if err := os.WriteFile(fingerprintFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: recorded %d lines; review and commit it", fingerprintFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("fingerprint has %d lines, %s has %d", len(got), fingerprintFile, len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... and %d more differing lines", bad-20)
	}
}
