package cluster

// Multi-leader collective tests: leader-set election shape, byte
// equivalence of the sharded two-level schedules against the single-
// leader and flat references on random multi-cluster topologies, and the
// backbone-crossing split — the inter-cluster phase engaging every
// gateway instead of funneling through one.

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mpichmad/internal/mpi"
)

// ringClusterTopo builds C SCI islands (sizes per szs) joined by a ring
// of point-to-point TCP bridges: bridge i links the last node of island i
// to the first node of island i+1 mod C. With C >= 3 every island fronts
// two distinct gateways, so leader sets have two members; with C == 2 the
// two bridges share endpoints pairwise and still yield distinct spanning
// nets per island.
func ringClusterTopo(szs []int) Topology {
	var nodes []NodeSpec
	names := make([][]string, len(szs))
	for ci, sz := range szs {
		for i := 0; i < sz; i++ {
			name := fmt.Sprintf("c%dn%d", ci, i)
			nodes = append(nodes, NodeSpec{Name: name, Procs: 1})
			names[ci] = append(names[ci], name)
		}
	}
	var nets []NetworkSpec
	for ci := range szs {
		nets = append(nets, NetworkSpec{
			Name: fmt.Sprintf("sci%d", ci), Protocol: "sisci", Nodes: names[ci],
		})
	}
	for ci := range szs {
		cj := (ci + 1) % len(szs)
		nets = append(nets, NetworkSpec{
			Name:     fmt.Sprintf("gw%d%d", ci, cj),
			Protocol: "tcp",
			Nodes:    []string{names[ci][len(names[ci])-1], names[cj][0]},
		})
	}
	return Topology{Nodes: nodes, Networks: nets, Forwarding: true}
}

// TestLeaderSetsShape: on the bridged ring every island's leader set has
// one member per distinct gateway net, gateways distinct and members in
// their own cluster.
func TestLeaderSetsShape(t *testing.T) {
	sess, err := Build(ringClusterTopo([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy()
	if h.NumClusters() != 3 {
		t.Fatalf("discovered %d clusters, want 3", h.NumClusters())
	}
	if len(h.Leaders) != 3 {
		t.Fatalf("Leaders = %v, want 3 entries", h.Leaders)
	}
	for ci, set := range h.Leaders {
		if len(set) != 2 {
			t.Fatalf("cluster %d leader set %v, want 2 members (two bridges per island)", ci, set)
		}
		seenGW := map[string]bool{}
		seenRank := map[int]bool{}
		for _, l := range set {
			if sess.hier.ClusterOf[l.Rank] != ci {
				t.Fatalf("cluster %d co-leader %d lives in cluster %d", ci, l.Rank, sess.hier.ClusterOf[l.Rank])
			}
			if seenRank[l.Rank] {
				t.Fatalf("cluster %d leader set %v repeats rank %d", ci, set, l.Rank)
			}
			seenRank[l.Rank] = true
			if l.Gateway == "" || seenGW[l.Gateway] {
				t.Fatalf("cluster %d gateway labels of %v not distinct and non-empty", ci, set)
			}
			seenGW[l.Gateway] = true
		}
	}
	// A chain without alternates keeps sets at one member: the middle
	// cluster of the ring minus one bridge... covered by the two-cluster
	// single-bridge shape instead.
	sess2, err := Build(ringClusterTopo([]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for ci, set := range sess2.Hierarchy().Leaders {
		if len(set) != 2 {
			t.Fatalf("two-island ring: cluster %d set %v, want 2 (both bridges)", ci, set)
		}
	}
}

// islandTopo builds SCI islands of the given sizes joined by point-to-point
// TCP bridges: bridge {ci, i, cj, j} links node i of island ci to node j of
// island cj (a negative node index counts from the island's end).
func islandTopo(szs []int, bridges [][4]int) Topology {
	var nodes []NodeSpec
	names := make([][]string, len(szs))
	var nets []NetworkSpec
	for ci, sz := range szs {
		for i := 0; i < sz; i++ {
			name := fmt.Sprintf("c%dn%d", ci, i)
			nodes = append(nodes, NodeSpec{Name: name, Procs: 1})
			names[ci] = append(names[ci], name)
		}
		nets = append(nets, NetworkSpec{Name: fmt.Sprintf("sci%d", ci), Protocol: "sisci", Nodes: names[ci]})
	}
	node := func(ci, i int) string { return names[ci][(i+len(names[ci]))%len(names[ci])] }
	for bi, br := range bridges {
		nets = append(nets, NetworkSpec{
			Name:     fmt.Sprintf("gw%d_%d%d", bi, br[0], br[2]),
			Protocol: "tcp",
			Nodes:    []string{node(br[0], br[1]), node(br[2], br[3])},
		})
	}
	return Topology{Nodes: nodes, Networks: nets, Forwarding: true}
}

// mlShapes are the wirings the multi-leader forms branch on, beside the
// closed rings of ringClusterTopo: a cluster pair with no bridge of its own,
// a pair with two, and clusters behind one gateway among wider ones.
var mlShapes = []struct {
	name string
	topo func() Topology
}{
	// A-B-C: A and C share no bridge, their traffic is routed through B; A
	// and C sit behind one gateway each beside B's two.
	{name: "chain", topo: func() Topology {
		return islandTopo([]int{2, 3, 2}, [][4]int{{0, -1, 1, 0}, {1, -1, 2, 0}})
	}},
	// Two clusters joined by two bridges on four distinct nodes: the pair's
	// traffic is striped over two relay couples.
	{name: "twobridges", topo: func() Topology {
		return islandTopo([]int{3, 3}, [][4]int{{0, 0, 1, 0}, {0, -1, 1, -1}})
	}},
	// A triangle with a fourth cluster hanging off A by one bridge, and a
	// one-node cluster in the ring: leader sets of 3, 2, 1 and 1 members.
	// Here the last rank of one Bcast shard's chain is fed another shard by
	// the same predecessor, so it may not post its receives late.
	{name: "tail", topo: func() Topology {
		return islandTopo([]int{3, 2, 1, 2},
			[][4]int{{0, 0, 1, 0}, {1, -1, 2, 0}, {2, 0, 0, 1}, {0, -1, 3, 0}})
	}},
	{name: "ring3", topo: func() Topology { return ringClusterTopo([]int{3, 3, 3}) }},
}

// pair64 is two int64 with one of padding between them: the strided twin of
// a pair of MPI_INT64. int64Op runs a predefined operation over the int64
// values of any datatype's packed form, so reductions are defined on it.
var pair64 = mpi.Vector(2, 1, 2, mpi.Int64)

type int64Op struct{ mpi.Op }

func (o int64Op) Apply(dst, src []byte, count int, dt mpi.Datatype) error {
	return o.Op.Apply(dst, src, count*dt.Size()/8, mpi.Int64)
}

// mlProgram is what every rank runs in one equivalence session.
type mlProgram struct {
	seed    byte
	count   int // elements of a Bcast and an Allreduce; an element is one int64, two when strided, a byte when bytes
	per     int // elements per rank of an Allgather, per pair of an Alltoall; 0: count
	root    int
	op      mpi.Op
	strided bool // pair64 instead of MPI_INT64
	bytes   bool // MPI_BYTE instead of MPI_INT64: lengths that are no multiple of eight
	aliased bool // Allreduce and Allgather get one buffer as send and receive
	icoll   bool // Iallreduce and Iallgather pending across tagged p2p
}

// multiCollOutputs runs the collective suite on a session of topo with the
// given algorithm family forced and returns every observable output, packed,
// keyed for comparison across families. The session must pass the Finalize
// audit and leave every wire and staging buffer home.
func multiCollOutputs(t *testing.T, topo Topology, mode mpi.CollMode, pg mlProgram) map[string][]byte {
	t.Helper()
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sess.Ranks)
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	dt, op := mpi.Datatype(mpi.Int64), pg.op
	switch {
	case pg.strided:
		dt, op = pair64, int64Op{pg.op}
	case pg.bytes:
		dt = mpi.Byte
	}
	es := dt.Size()
	per := pg.per
	if per == 0 {
		per = pg.count
	}
	// spread lays packed elements out as total elements of dt; squeeze reads
	// an element buffer back into packed form.
	spread := func(packed []byte, total int) []byte {
		buf := make([]byte, total*dt.Extent())
		mpi.UnpackBuf(buf, len(packed)/es, dt, packed)
		return buf
	}
	squeeze := func(buf []byte, total int) []byte {
		return append([]byte(nil), mpi.PackBuf(buf, total, dt)...)
	}
	out := make(map[string][]byte)
	record := func(what string, rank int, packed []byte) {
		out[fmt.Sprintf("%s/r%d", what, rank)] = packed
	}
	// values packs the n-element vector whose value i is f(i): int64 values,
	// or their low bytes.
	values := func(n int, f func(i int) int64) []byte {
		if pg.bytes {
			v := make([]byte, n)
			for i := range v {
				v[i] = byte(f(i))
			}
			return v
		}
		v := make([]int64, n*es/8)
		for i := range v {
			v[i] = f(i)
		}
		return mpi.Int64Bytes(v)
	}
	input := func(rank, salt, n int) []byte {
		return values(n, func(i int) int64 {
			return int64((int(pg.seed)+salt+rank*11+i*5)%9) - 4 // small: OpProd stays exact
		})
	}
	// bufs returns the send and receive buffers of a call that contributes v
	// and receives total elements: distinct, or the same memory.
	bufs := func(v []byte, total int) (send, recv []byte) {
		if !pg.aliased {
			return spread(v, len(v)/es), spread(nil, total)
		}
		recv = spread(v, total)
		return recv, recv
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		count := pg.count
		buf := spread(nil, count)
		if rank == pg.root {
			buf = spread(input(rank, 0, count), count)
		}
		if err := comm.Bcast(buf, count, dt, pg.root); err != nil {
			return err
		}
		record("bcast", rank, squeeze(buf, count))

		arSend, arRecv := bufs(input(rank, 1, count), count)
		agSend, agRecv := bufs(input(rank, 2, per), per*n)
		if pg.icoll {
			// Both collectives pending while tagged point-to-point traffic
			// crosses the same communicator in both directions of the ring.
			ar, err := comm.Iallreduce(arSend, arRecv, count, dt, op)
			if err != nil {
				return err
			}
			ag, err := comm.Iallgather(agSend, agRecv, per, dt)
			if err != nil {
				return err
			}
			next, prev := (rank+1)%n, (rank+n-1)%n
			got := make([]byte, 16)
			for tag, to := range []int{next, prev} {
				from := prev + next - to
				if _, err := comm.Sendrecv(mpi.Int64Bytes([]int64{int64(rank), int64(tag)}), 2, mpi.Int64, to, 40+tag,
					got, 2, mpi.Int64, from, 40+tag); err != nil {
					return err
				}
				if v := mpi.BytesInt64(got); v[0] != int64(from) || v[1] != int64(tag) {
					return fmt.Errorf("rank %d tag %d: got %v from %d", rank, 40+tag, v, from)
				}
			}
			if err := ag.Wait(); err != nil {
				return err
			}
			if err := ar.Wait(); err != nil {
				return err
			}
		} else {
			if err := comm.Allreduce(arSend, arRecv, count, dt, op); err != nil {
				return err
			}
			if err := comm.Allgather(agSend, agRecv, per, dt); err != nil {
				return err
			}
		}
		record("allreduce", rank, squeeze(arRecv, count))
		record("allgather", rank, squeeze(agRecv, per*n))

		a2a := values(per*n, func(i int) int64 { return int64(rank*1000 + i) })
		a2aOut := spread(nil, per*n)
		if err := comm.Alltoall(spread(a2a, per*n), a2aOut, per, dt); err != nil {
			return err
		}
		record("alltoall", rank, squeeze(a2aOut, per*n))
		return nil
	})
	if err != nil {
		t.Fatalf("%v: %v", pg, err)
	}
	if home := sess.bufs.Out(); home != 0 {
		t.Errorf("%v: %d wire or staging buffers still out at the end of the session", pg, home)
	}
	return out
}

// mlEquivalent runs pg on topo under the multi-leader, the single-leader and
// the flat forms and reports whether all three agree byte for byte.
func mlEquivalent(t *testing.T, what string, topo func() Topology, pg mlProgram) bool {
	t.Helper()
	multi := multiCollOutputs(t, topo(), mpi.CollHierMulti, pg)
	for _, ref := range []struct {
		name string
		mode mpi.CollMode
	}{{"single", mpi.CollHier}, {"flat", mpi.CollFlat}} {
		want := multiCollOutputs(t, topo(), ref.mode, pg)
		if len(multi) != len(want) {
			t.Errorf("%s: output key sets differ: multi %d %s %d", what, len(multi), ref.name, len(want))
			return false
		}
		for k, mv := range multi {
			if string(mv) != string(want[k]) {
				at := 0
				for at < len(mv) && at < len(want[k]) && mv[at] == want[k][at] {
					at++
				}
				t.Errorf("%s root %d op %s count %d per %d strided %v bytes %v aliased %v icoll %v: %s: multi != %s from byte %d of %d: % x, want % x",
					what, pg.root, pg.op.Name(), pg.count, pg.per, pg.strided, pg.bytes, pg.aliased, pg.icoll,
					k, ref.name, at, len(mv), mv[at:min(at+16, len(mv))], want[k][at:min(at+16, len(want[k]))])
				return false
			}
		}
	}
	return true
}

// mlOps is every predefined reduction.
var mlOps = []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd,
	mpi.OpBAnd, mpi.OpBOr, mpi.OpBXor, mpi.OpLAnd, mpi.OpLOr}

// TestMultiLeaderEquivalence: on random ring-cluster shapes, payloads,
// roots and ops, the multi-leader collectives are byte-identical to the
// single-leader two-level form and to the flat reference.
func TestMultiLeaderEquivalence(t *testing.T) {
	f := func(seed, nc, s0, s1, s2, rootSel, opIdx, length uint8) bool {
		szs := []int{int(s0)%3 + 1, int(s1)%3 + 1, int(s2)%3 + 1}[:int(nc)%2+2]
		n := 0
		for _, sz := range szs {
			n += sz
		}
		// Counts straddling the shard granularity: smaller than, equal to
		// and larger than typical leader-set sizes.
		pg := mlProgram{seed: seed, count: int(length)%29 + 1, root: int(rootSel) % n, op: mlOps[int(opIdx)%len(mlOps)]}
		return mlEquivalent(t, fmt.Sprint("ring ", szs), func() Topology { return ringClusterTopo(szs) }, pg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiLeaderEquivalenceShapes walks the branches of the multi-leader
// compilers one by one: every wiring of mlShapes under every predefined
// operation, with element counts below the cluster count (empty pieces), in
// the eager range and in rendez-vous and segmented territory, strided and
// dense, send and receive buffers apart and aliased, blocking and with both
// collectives pending across point-to-point traffic.
func TestMultiLeaderEquivalenceShapes(t *testing.T) {
	counts := []int{1, 2, 3, 7, 29, 600, 5000}
	for si, sh := range mlShapes {
		t.Run(sh.name, func(t *testing.T) {
			n := len(sh.topo().Nodes)
			for oi, op := range mlOps {
				i := si*len(mlOps) + oi
				pg := mlProgram{
					seed: byte(17 * i), count: counts[i%len(counts)], root: (5 * i) % n, op: op,
					strided: i%2 == 1, aliased: i%3 == 1, icoll: i%4 >= 2,
				}
				mlEquivalent(t, sh.name, sh.topo, pg)
			}
		})
	}
}

// slabUnit mirrors the multi-leader forms' slab unit (slabbing) on a session
// without measured thresholds: of the cluster pair whose couples carry the
// most, its couple count times the chunk of its first couple — a bridge's
// pipeline segment for couples at the two ends of one, the least segment of
// any network for couples the fabric routes. An exchange whose longest pair
// carries c units is cut into ⌈c/⌈√c⌉⌉ slabs: one up to two units, two up to
// six, four from thirteen on.
func slabUnit(h *mpi.Hierarchy) int {
	least, widest, unit := math.MaxInt, 0, 0
	for _, l := range h.Nets {
		least = min(least, l.SegmentBytes)
	}
	for _, set := range h.Leaders {
		widest = max(widest, len(set))
	}
	for ci, si := range h.Leaders {
		for cj, sj := range h.Leaders {
			var shared []string
			for _, l := range sj {
				if l.Gateway != "" && slices.ContainsFunc(si, func(m mpi.Leader) bool { return m.Gateway == l.Gateway }) {
					shared = append(shared, l.Gateway)
				}
			}
			couples := map[[2]int]bool{}
			for k := 0; k < widest && len(shared) == 0; k++ {
				couples[[2]int{si[k%len(si)].Rank, sj[k%len(sj)].Rank}] = true
			}
			switch {
			case ci == cj:
			case len(shared) > 0:
				unit = max(unit, len(shared)*h.Nets[shared[0]].SegmentBytes)
			default:
				unit = max(unit, len(couples)*least)
			}
		}
	}
	return unit
}

// TestMultiLeaderEquivalenceSlabs is the same pin at payloads a slab-pipelined
// bridge exchange cuts, on every wiring of mlShapes, on the bridged triangle
// and on a ring deep enough for two- and three-level trees: an exchange of one
// slab (an Allreduce piece of exactly two units, stripes of whole chunks), of
// two slabs (four units and a byte, the last chunk and slab ragged) and of
// four slabs and more (seventeen units and an element, which neither the
// clusters nor their couples divide), plus one case of 1 MiB per operation on
// the triangle. Roots are a plain member and a co-leader that is not its
// cluster's primary; the variants take turns at strided types, one buffer as
// send and receive, every operation, and both collectives pending across
// tagged point-to-point traffic. The chain keeps, as a row of its own, the
// case that hung when its couple through the middle island was cut in chunks
// above that island's eager threshold.
func TestMultiLeaderEquivalenceSlabs(t *testing.T) {
	type shape = struct {
		name string
		topo func() Topology
	}
	shapes := append(mlShapes[:len(mlShapes):len(mlShapes)], shape{"triangle", bridgedTriangle},
		shape{"deep", func() Topology { return ringClusterTopo([]int{5, 3, 4}) }})
	for si, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sess, err := Build(sh.topo())
			if err != nil {
				t.Fatal(err)
			}
			h := sess.Hierarchy()
			// A plain member and a co-leader behind its cluster's primary.
			plain, second := -1, -1
			for r := len(sess.Ranks) - 1; r >= 0; r-- {
				switch at := posOf(h.Leaders[h.ClusterOf[r]], r); {
				case at < 0:
					plain = r
				case at > 0:
					second = r
				}
			}
			if plain < 0 || second < 0 {
				t.Fatalf("no plain member (%d) or no second co-leader (%d) in %v", plain, second, h.Leaders)
			}
			// The Allreduce's pair carries a piece, count/C elements; an
			// Allgather's one island's blocks, an Alltoall's two islands' worth.
			C, u := h.NumClusters(), slabUnit(h)
			progs := []mlProgram{
				{count: C * 2 * u, per: 2 * u / 9, root: plain, bytes: true},
				{count: C * (4*u + 1), per: (4*u + 1) / 3, root: second, bytes: true, aliased: true, icoll: true},
				{count: C*17*u/8 + 1, per: 17 * u / 8 / 3, root: second, aliased: true},
				{count: C*17*u/16 + 1, per: 17 * u / 16 / 6, root: plain, strided: true, icoll: true},
			}
			for pi := range progs {
				progs[pi].seed, progs[pi].op = byte(29*si+7*pi), mlOps[(4*si+pi)%len(mlOps)]
			}
			switch sh.name {
			case "chain":
				progs = append(progs, mlProgram{seed: 14, count: 116737, per: 116737 / 3 / 3, root: second, op: mpi.OpMin, aliased: true})
			case "triangle":
				progs = append(progs, mlProgram{seed: 29*byte(si) + 28, count: 1 << 17, per: 1<<17/9 + 1, root: plain, op: mpi.OpSum, icoll: true})
			}
			for _, pg := range progs {
				mlEquivalent(t, sh.name, sh.topo, pg)
			}
		})
	}
}

func posOf(set []mpi.Leader, r int) int {
	return slices.IndexFunc(set, func(l mpi.Leader) bool { return l.Rank == r })
}

// bridgeLoads runs one 512K Bcast from rank 0 on the three-island ring
// with the given mode forced and returns each bridge network's wire bytes.
func bridgeLoads(t *testing.T, mode mpi.CollMode) map[string]uint64 {
	t.Helper()
	const payload = 512 << 10
	sess, err := Build(ringClusterTopo([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, payload)
		if rank == 0 {
			for i := range buf {
				buf[i] = byte(i * 13)
			}
		}
		return comm.Bcast(buf, payload, mpi.Byte, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]uint64{}
	for name, net := range sess.Networks {
		if net.Params.Protocol == "tcp" {
			loads[name] = net.Stats.Bytes
		}
	}
	return loads
}

// TestBDPRelayWindows: with Autotune on and RelayWindow unpinned, the
// wiring sizes one relay credit window per backbone from its
// bandwidth-delay product and each gateway device adopts the largest
// window among the backbones it fronts — while non-gateway devices keep
// the static default, and sessions without Autotune are untouched.
func TestBDPRelayWindows(t *testing.T) {
	topo := ringClusterTopo([]int{3, 3, 3})
	topo.Autotune = true
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	windows := sess.bdpRelayWindows(sess.hier)
	if len(windows) != 3 {
		t.Fatalf("bdpRelayWindows = %v, want one window per bridge", windows)
	}
	for net, w := range windows {
		if w < minBDPWindow || w > maxBDPWindow {
			t.Errorf("window for %s = %d, outside [%d, %d]", net, w, minBDPWindow, maxBDPWindow)
		}
	}
	tuned := 0
	for r, rk := range sess.Ranks {
		dev, want := rk.ChMad, 0
		for _, net := range sess.netsOfNode[sess.places[r].node] {
			if w, ok := windows[net]; ok && w > want {
				want = w
			}
		}
		if want == 0 {
			want = DefaultRelayWindow
		} else {
			tuned++
		}
		if dev.RelayWindow != want {
			t.Errorf("rank %d RelayWindow = %d, want %d", r, dev.RelayWindow, want)
		}
	}
	if tuned == 0 {
		t.Error("no device adopted a BDP window: every rank kept the static default")
	}
	// The BDP-sized credit windows must survive real relay traffic and
	// the post-run invariant audit.
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, 256<<10)
		if rank == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		return comm.Bcast(buf, len(buf), mpi.Byte, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gate off: no Autotune keeps the historical static default.
	sess2, err := Build(ringClusterTopo([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	for r, rk := range sess2.Ranks {
		if rk.ChMad.RelayWindow != DefaultRelayWindow {
			t.Errorf("untuned session: rank %d RelayWindow = %d, want %d",
				r, rk.ChMad.RelayWindow, DefaultRelayWindow)
		}
	}
}

// TestMultiLeaderSplitsBackboneCrossings: the multi-leader Bcast's
// inter-cluster phase engages every bridge of the ring with a substantial
// share of the payload, where the single-leader form leaves at least one
// bridge essentially idle (control traffic only).
func TestMultiLeaderSplitsBackboneCrossings(t *testing.T) {
	const payload = 512 << 10
	multi := bridgeLoads(t, mpi.CollHierMulti)
	single := bridgeLoads(t, mpi.CollHier)
	if len(multi) != 3 {
		t.Fatalf("expected 3 bridge networks, got %v", multi)
	}
	busyAt := func(loads map[string]uint64, floor uint64) int {
		busy := 0
		for _, b := range loads {
			if b >= floor {
				busy++
			}
		}
		return busy
	}
	if got := busyAt(multi, payload/8); got != 3 {
		t.Errorf("multi-leader Bcast engaged %d/3 bridges with >= %d bytes: %v",
			got, payload/8, multi)
	}
	if got := busyAt(single, payload/8); got >= 3 {
		t.Errorf("single-leader Bcast engaged all %d bridges (%v); crossing split shows nothing",
			got, single)
	}
}

// ringOpCost runs op once on the three-island ring with mode forced and
// returns what the operation alone cost: each bridge network's wire bytes,
// both directions summed, and the ch_mad relay hops summed over the ranks —
// net of the same session without the operation (the simulator is
// deterministic, so what MPI_Init and Finalize add subtracts out exactly).
func ringOpCost(t *testing.T, mode mpi.CollMode, op func(comm *mpi.Comm) error) (map[string]uint64, uint64) {
	t.Helper()
	run := func(op func(comm *mpi.Comm) error) (map[string]uint64, uint64) {
		sess, err := Build(ringClusterTopo([]int{3, 3, 3}))
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range sess.Ranks {
			rk.MPI.SetCollMode(mode)
		}
		if err := sess.Run(func(_ int, comm *mpi.Comm) error { return op(comm) }); err != nil {
			t.Fatal(err)
		}
		loads, forwarded := map[string]uint64{}, uint64(0)
		for name, net := range sess.Networks {
			if net.Params.Protocol == "tcp" {
				loads[name] = net.Stats.Bytes
			}
		}
		for _, rk := range sess.Ranks {
			forwarded += rk.ChMad.NForwarded
		}
		return loads, forwarded
	}
	loads, forwarded := run(op)
	idle, idleForwarded := run(func(*mpi.Comm) error { return nil })
	for name := range loads {
		loads[name] -= idle[name]
	}
	return loads, forwarded - idleForwarded
}

// TestMultiLeaderCrossesEveryBridgeOnce: a multi-leader Allreduce moves 2/C
// of the vector over every directed bridge link in each of its two phases
// and an Allgather one cluster's bundle, 1/C of the result — on the three
// bridges of the ring 4N/3 and 2N/3 bytes per bridge, both directions
// summed — the three bridges carry the same load, and every crossing runs
// between the two ends of a bridge: no ch_mad device relays a message.
func TestMultiLeaderCrossesEveryBridgeOnce(t *testing.T) {
	const n = 1 << 20
	for _, tc := range []struct {
		name  string
		bound uint64
		op    func(comm *mpi.Comm) error
	}{
		{"Allreduce", 4 * n / 3, func(comm *mpi.Comm) error {
			return comm.Allreduce(make([]byte, n), make([]byte, n), n, mpi.Byte, mpi.OpMax)
		}},
		{"Allgather", 2 * n / 3, func(comm *mpi.Comm) error {
			per := n / comm.Size()
			return comm.Allgather(make([]byte, per), make([]byte, per*comm.Size()), per, mpi.Byte)
		}},
	} {
		loads, forwarded := ringOpCost(t, mpi.CollHierMulti, tc.op)
		if len(loads) != 3 {
			t.Fatalf("%s: expected 3 bridge networks, got %v", tc.name, loads)
		}
		lo, hi := ^uint64(0), uint64(0)
		for _, b := range loads {
			lo, hi = min(lo, b), max(hi, b)
		}
		if limit := tc.bound + tc.bound/20; hi > limit {
			t.Errorf("%s of 1 MiB: a bridge carries %d bytes, want at most %d (1.05 x %d): %v",
				tc.name, hi, limit, tc.bound, loads)
		}
		if hi-lo > hi/20 {
			t.Errorf("%s of 1 MiB: bridge loads are more than 5%% apart: %v", tc.name, loads)
		}
		if forwarded != 0 {
			t.Errorf("%s of 1 MiB: ch_mad devices relayed %d messages, want 0 (every crossing between the two ends of a bridge)",
				tc.name, forwarded)
		}
	}
}
