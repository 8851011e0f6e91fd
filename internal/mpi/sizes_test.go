package mpi_test

// The multi-leader forms size their pipelines from the links they ride —
// bridge chunks, slabs and Bcast segments (phases.go) — on every rank from the
// same data. What the derivation promises, on the wirings the forms branch on,
// with the native switch points and with the ones MPI_Init measures.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/trace"
)

// islands builds SCI islands of the given sizes joined by point-to-point TCP
// bridges: bridge {ci, i, cj, j} links node i of island ci to node j of island
// cj (a negative node index counts from the island's end).
func islands(szs []int, bridges [][4]int) cluster.Topology {
	var topo cluster.Topology
	names := make([][]string, len(szs))
	for ci, sz := range szs {
		for i := 0; i < sz; i++ {
			names[ci] = append(names[ci], fmt.Sprintf("c%dn%d", ci, i))
			topo.Nodes = append(topo.Nodes, cluster.NodeSpec{Name: names[ci][i], Procs: 1})
		}
		topo.Networks = append(topo.Networks, cluster.NetworkSpec{Name: fmt.Sprintf("sci%d", ci), Protocol: "sisci", Nodes: names[ci]})
	}
	node := func(ci, i int) string { return names[ci][(i+len(names[ci]))%len(names[ci])] }
	for bi, br := range bridges {
		topo.Networks = append(topo.Networks, cluster.NetworkSpec{
			Name: fmt.Sprintf("gw%d", bi), Protocol: "tcp", Nodes: []string{node(br[0], br[1]), node(br[2], br[3])},
		})
	}
	topo.Forwarding = true
	return topo
}

// sizeShapes: every couple at the two ends of one bridge over SCI, SCI and
// BIP fabrics (triangle); a pair without a bridge, whose couple the fabric
// routes through a third island (chain); a pair striped over two couples
// (twobridges); routed pairs of two couples beside a one-node island (tail).
var sizeShapes = []struct {
	name string
	topo func() cluster.Topology
}{
	{"triangle", triangleTopo},
	{"chain", func() cluster.Topology { return islands([]int{2, 3, 2}, [][4]int{{0, -1, 1, 0}, {1, -1, 2, 0}}) }},
	{"twobridges", func() cluster.Topology { return islands([]int{3, 3}, [][4]int{{0, 0, 1, 0}, {0, -1, 1, -1}}) }},
	{"tail", func() cluster.Topology {
		return islands([]int{3, 2, 1, 2}, [][4]int{{0, 0, 1, 0}, {1, -1, 2, 0}, {2, 0, 0, 1}, {0, -1, 3, 0}})
	}},
}

// sizeLadder is the payloads the sizes are derived for, ascending.
var sizeLadder = []int{1, 1 << 10, 16 << 10, 29 << 10, 64 << 10, 100000, 256 << 10, 1 << 20, 4 << 20}

// TestPipelineSizes: every rank derives the same chunk for every couple and
// the same slabs and Bcast segment for every payload; every chunk and
// segment is eager on every link it may ride, by what the devices themselves
// resolve; no size shrinks as the payload grows; and a payload of one slab is
// one slab of the whole of it.
func TestPipelineSizes(t *testing.T) {
	for _, sh := range sizeShapes {
		for _, tuned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tuned=%v", sh.name, tuned), func(t *testing.T) {
				topo := sh.topo()
				topo.Autotune = tuned
				sess, err := cluster.Build(topo)
				if err != nil {
					t.Fatal(err)
				}
				n := len(sess.Ranks)
				couples, slabs, segs := make([][]mpi.Couple, n), make([][][2]int, n), make([][]int, n)
				err = sess.Run(func(rank int, comm *mpi.Comm) error {
					couples[rank] = comm.Couples()
					for _, size := range sizeLadder {
						k, w := comm.Slabbing(size, 8)
						slabs[rank] = append(slabs[rank], [2]int{k, w})
						segs[rank] = append(segs[rank], comm.ChainSegment(size))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if tuned && len(sess.Ranks[0].MPI.ClassSwitchPoints()) == 0 {
					t.Fatal("the autotuned session measured no class threshold")
				}
				for r := 1; r < n; r++ {
					if !reflect.DeepEqual(couples[r], couples[0]) || !reflect.DeepEqual(slabs[r], slabs[0]) || !reflect.DeepEqual(segs[r], segs[0]) {
						t.Fatalf("rank %d derives %v, slabs %v, segments %v; rank 0 %v, %v, %v",
							r, couples[r], slabs[r], segs[r], couples[0], slabs[0], segs[0])
					}
				}
				t.Logf("class thresholds %v; couples %v; slabs %v and Bcast segments %v at %v B",
					sess.Ranks[0].MPI.ClassSwitchPoints(), couples[0], slabs[0], segs[0], sizeLadder)
				eager := func(from, to int) int { return sess.Ranks[from].ChMad.SwitchPointTo(to) }
				for _, cp := range couples[0] {
					// What each end derives, against what each end's device sends eagerly.
					if x, y := couples[cp.X], couples[cp.Y]; !reflect.DeepEqual(x, y) {
						t.Errorf("couple %d->%d: its ends derive %v and %v", cp.X, cp.Y, x, y)
					}
					if cp.Chunk <= 0 || cp.Chunk > eager(cp.X, cp.Y) || cp.Chunk > eager(cp.Y, cp.X) {
						t.Errorf("couple %d->%d (direct %v): chunk %d, eager up to %d one way and %d the other",
							cp.X, cp.Y, cp.Direct, cp.Chunk, eager(cp.X, cp.Y), eager(cp.Y, cp.X))
					}
				}
				for i, size := range sizeLadder {
					k, w := slabs[0][i][0], slabs[0][i][1]
					if w%8 != 0 || k == 1 && w < size || k > 1 && (k-1)*w >= size {
						t.Errorf("%d B: %d slabs of %d B", size, k, w)
					}
					if i > 0 && (k < slabs[0][i-1][0] || w < slabs[0][i-1][1] || segs[0][i] < segs[0][i-1]) {
						t.Errorf("%d B: %d slabs of %d B, segment %d; %d B before it: %v, segment %d",
							size, k, w, segs[0][i], sizeLadder[i-1], slabs[0][i-1], segs[0][i-1])
					}
					for a := 0; a < n; a++ {
						for b := 0; b < n; b++ {
							if a != b && segs[0][i] > eager(a, b) {
								t.Errorf("%d B: Bcast segment %d, but %d->%d is eager up to %d", size, segs[0][i], a, b, eager(a, b))
							}
						}
					}
				}
			})
		}
	}
}

// TestPipelineOneSlabIsUnpipelined: a multi-leader Allgather whose bundles
// make one slab compiles to the stages one after another — no round of it
// rides two lanes — while one of several slabs overlaps its rounds.
func TestPipelineOneSlabIsUnpipelined(t *testing.T) {
	for _, tc := range []struct {
		per    int
		pipe   bool
		sample string
	}{{1000, false, "one slab"}, {100000, true, "several slabs"}} {
		topo := triangleTopo()
		tr := trace.New(nil)
		topo.Trace = tr
		sess, err := cluster.Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range sess.Ranks {
			rk.MPI.SetCollMode(mpi.CollHierMulti)
		}
		var slabs int
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			slabs, _ = comm.Slabbing(3*tc.per, 1) // a pair carries one island's three blocks
			return comm.Allgather(make([]byte, tc.per), make([]byte, 9*tc.per), tc.per, mpi.Byte)
		})
		if err != nil {
			t.Fatal(err)
		}
		laned, seqs := 0, map[uint32]bool{}
		for _, ev := range tr.Events() {
			if ev.Name == "sched.allgather.hm" {
				seqs[ev.Args.Seq] = true
			}
		}
		for _, ev := range tr.Events() {
			if ev.Name == "sched.round" && seqs[ev.Args.Seq] && strings.Contains(ev.Args.Class, "/1:") {
				laned++
			}
		}
		if len(seqs) == 0 || (slabs > 1) != tc.pipe || (laned > 0) != tc.pipe {
			t.Errorf("%s: Allgather of %d B a rank cut into %d slabs, %d laned rounds in %d schedules", tc.sample, tc.per, slabs, laned, len(seqs))
		}
	}
}
