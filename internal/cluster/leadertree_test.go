package cluster

// The leader level of the two-level trees against the flat reference, on
// machines with enough clusters for its shape to matter: whatever tree the
// leaders form, Barrier, Bcast, Reduce and Allreduce must return what the
// topology-blind algorithms return, byte for byte, and put one message per
// remote cluster and direction on the backbone.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
)

// starTopo builds one SCI island per entry of szs, the first node of each on
// a single TCP backbone — every cluster behind one gateway, forwarding on for
// the ranks inside — whose trunk is capped (concurrent crossings share
// 11.2 MB/s) or not (private pipes).
func starTopo(szs []int, capped bool) Topology {
	bb := netsim.FastEthernetTCP()
	if capped {
		bb.NetworkBandwidth = bb.Bandwidth
	}
	topo := Topology{Forwarding: true, MaxPaths: 1}
	var gateways []string
	for c, sz := range szs {
		var nodes []string
		for i := 0; i < sz; i++ {
			name := fmt.Sprintf("c%02dn%d", c, i)
			topo.Nodes = append(topo.Nodes, NodeSpec{Name: name, Procs: 1})
			nodes = append(nodes, name)
		}
		topo.Networks = append(topo.Networks, NetworkSpec{Name: fmt.Sprintf("cl%02d", c), Protocol: "sisci", Nodes: nodes})
		gateways = append(gateways, nodes[0])
	}
	topo.Networks = append(topo.Networks, NetworkSpec{Name: "bb", Protocol: "tcp", Params: &bb, Nodes: gateways})
	return topo
}

// starSizes draws nc cluster sizes of 1 to 4 ranks from seed.
func starSizes(nc int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	szs := make([]int, nc)
	for i := range szs {
		szs[i] = rng.Intn(4) + 1
	}
	return szs
}

// treeCollOutputs runs the four tree collectives on a session of topo with
// the given algorithm family forced and returns every observable output,
// packed, keyed for comparison across families: a Bcast from and a Reduce to
// every rank (dense and strided by turns, the Reduce's buffers apart or one,
// the operation rotating), an Allreduce under every predefined operation, a
// Bcast of more than two backbone segments from the last rank, and an Ibcast
// and an Iallreduce left pending across tagged point-to-point traffic. The
// session must pass the Finalize audit and leave every wire and staging
// buffer home.
func treeCollOutputs(t *testing.T, topo Topology, mode mpi.CollMode, seed int) map[string][]byte {
	t.Helper()
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sess.Ranks)
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	out := make(map[string][]byte)
	record := func(what string, rank int, packed []byte) {
		out[fmt.Sprintf("%s/r%d", what, rank)] = append([]byte(nil), packed...)
	}
	// input is rank's packed contribution of count int64 values: one, but for
	// the few ranks an element's residue singles out (251 is prime and above
	// the rank count, so each of the other values meets an element at most
	// once — OpProd stays exact and is not always zero).
	rare := []int64{0, 2, -1, 3, 5, -2, 4, 7}
	input := func(rank, salt, count int) []byte {
		v := make([]int64, count)
		for i := range v {
			v[i] = 1
			if r := (seed + salt + rank*7 + i*3) % 251; r < len(rare) {
				v[i] = rare[r]
			}
		}
		return mpi.Int64Bytes(v)
	}
	// form picks the datatype and operation of case i: pair64 with its padding
	// every other time.
	form := func(i int, op mpi.Op) (mpi.Datatype, mpi.Op, int) {
		if i%2 == 1 {
			return pair64, int64Op{op}, 2
		}
		return mpi.Int64, op, 1
	}
	spread := func(dt mpi.Datatype, packed []byte, total int) []byte {
		buf := make([]byte, total*dt.Extent())
		mpi.UnpackBuf(buf, len(packed)/dt.Size(), dt, packed)
		return buf
	}
	segmented := 2*sess.Hierarchy().Inter.SegmentBytes + 4096
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		for root := 0; root < n; root++ {
			dt, op, per := form(root, mlOps[root%len(mlOps)])
			count := 1 + (seed+root)%5
			buf := spread(dt, nil, count)
			if rank == root {
				buf = spread(dt, input(rank, root, count*per), count)
			}
			if err := comm.Bcast(buf, count, dt, root); err != nil {
				return err
			}
			record(fmt.Sprint("bcast", root), rank, mpi.PackBuf(buf, count, dt))

			send := spread(dt, input(rank, root+1, count*per), count)
			recv := spread(dt, nil, count)
			if root%3 == 1 {
				recv = send
			}
			if err := comm.Reduce(send, recv, count, dt, op, root); err != nil {
				return err
			}
			if rank == root {
				record(fmt.Sprint("reduce", root), rank, mpi.PackBuf(recv, count, dt))
			}
			if root%16 == 15 {
				if err := comm.Barrier(); err != nil {
					return err
				}
			}
		}
		for oi, o := range mlOps {
			dt, op, per := form(oi, o)
			count := 3 + oi
			send := spread(dt, input(rank, 100+oi, count*per), count)
			recv := spread(dt, nil, count)
			if oi%3 == 2 {
				recv = send
			}
			if err := comm.Allreduce(send, recv, count, dt, op); err != nil {
				return err
			}
			record("allreduce"+o.Name(), rank, mpi.PackBuf(recv, count, dt))
		}

		big := make([]byte, segmented)
		if rank == n-1 {
			for i := range big {
				big[i] = byte(i*7 + seed)
			}
		}
		if err := comm.Bcast(big, len(big), mpi.Byte, n-1); err != nil {
			return err
		}
		record("bcastseg", rank, big)

		// Both collectives pending while tagged point-to-point traffic crosses
		// the communicator in both directions of the rank ring.
		ib := spread(mpi.Int64, nil, 4)
		if rank == n/2 {
			ib = input(rank, 200, 4)
		}
		bc, err := comm.Ibcast(ib, 4, mpi.Int64, n/2)
		if err != nil {
			return err
		}
		arOut := make([]byte, 5*8)
		ar, err := comm.Iallreduce(input(rank, 201, 5), arOut, 5, mpi.Int64, mpi.OpSum)
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
		if err := ar.Wait(); err != nil {
			return err
		}
		if err := bc.Wait(); err != nil {
			return err
		}
		record("ibcast", rank, ib)
		record("iallreduce", rank, arOut)
		if sess.Hierarchy().NumClusters() > 1 {
			return nil
		}
		// A Float64 sum depends on the order it is taken in (1e16 + 1 − 1e16
		// is 0, 1e16 − 1e16 + 1 is 1). On one cluster the flat Reduce and
		// Allreduce are the two-level tree's one-cluster case: both fold the
		// binomial tree's children in ascending stride order.
		val := func(r int) float64 { return []float64{1e16, 1, -1e16, 1, 3, -1e16}[r%6] }
		fold := func(root int) float64 {
			var at func(rel int) float64
			at = func(rel int) float64 {
				v := val((rel + root) % n)
				for mask := 1; mask < n && rel&mask == 0; mask <<= 1 {
					if rel+mask < n {
						v += at(rel + mask)
					}
				}
				return v
			}
			return at(0)
		}
		mine, sum := mpi.Float64Bytes([]float64{val(rank)}), make([]byte, 8)
		check := func(what string, root int, err error) error {
			if got := mpi.BytesFloat64(sum)[0]; err == nil && (what == "Allreduce" || rank == root) && got != fold(root) {
				err = fmt.Errorf("rank %d: Float64 %s to %d is %g, the binomial fold %g", rank, what, root, got, fold(root))
			}
			return err
		}
		for root := 0; root < n; root++ {
			if err := check("Reduce", root, comm.Reduce(mine, sum, 1, mpi.Float64, mpi.OpSum, root)); err != nil {
				return err
			}
		}
		if err := check("Allreduce", 0, comm.Allreduce(mine, sum, 1, mpi.Float64, mpi.OpSum)); err != nil {
			return err
		}
		record("float64sum", rank, sum)
		return nil
	})
	if err != nil {
		t.Fatalf("%d ranks: %v", n, err)
	}
	if home := sess.bufs.Out(); home != 0 {
		t.Errorf("%d ranks: %d wire or staging buffers still out at the end of the session", n, home)
	}
	return out
}

// leaderTreeClusters are the cluster counts of the suite: from four leaders
// up a leader tree has shapes to choose from; 13 and 33 are no power of two
// and one past one.
var leaderTreeClusters = []int{4, 5, 8, 13, 33}

// TestLeaderTreeEquivalence: on 4 to 33 single-gateway clusters of 1 to 4
// ranks, over a capped and an uncapped backbone, the two-level Barrier, Bcast,
// Reduce and Allreduce are byte-identical to the flat reference — every rank
// as root, plain members included, every predefined operation, strided and
// aliased buffers, a segmented Bcast, Icolls pending across p2p traffic.
func TestLeaderTreeEquivalence(t *testing.T) {
	type input struct {
		szs    []int
		capped bool
		seed   int
	}
	// One cluster of six ranks first: there the two-level forms degrade to
	// the flat ones, and a Float64 sum holds the same bits under both.
	inputs := []input{{[]int{6}, false, 5}}
	for ci, nc := range leaderTreeClusters {
		for _, capped := range []bool{true, false} {
			inputs = append(inputs, input{starSizes(nc, int64(100*nc+ci)), capped, 31*ci + 7})
		}
	}
	for _, in := range inputs {
		t.Run(fmt.Sprintf("%dclusters/capped=%v", len(in.szs), in.capped), func(t *testing.T) {
			szs := in.szs
			hier := treeCollOutputs(t, starTopo(szs, in.capped), mpi.CollHier, in.seed)
			flat := treeCollOutputs(t, starTopo(szs, in.capped), mpi.CollFlat, in.seed)
			if len(hier) != len(flat) {
				t.Fatalf("%v: output key sets differ: 2level %d flat %d", szs, len(hier), len(flat))
			}
			for k, hv := range hier {
				if string(hv) != string(flat[k]) {
					at := 0
					for at < len(hv) && at < len(flat[k]) && hv[at] == flat[k][at] {
						at++
					}
					t.Fatalf("%v: %s: 2level != flat from byte %d of %d: % x, want % x",
						szs, k, at, len(hv), hv[at:min(at+16, len(hv))], flat[k][at:min(at+16, len(flat[k]))])
				}
			}
		})
	}
}

// TestLeaderTreeAllreduceSameBitsOnEveryRank: where a two-level Allreduce's
// leaders exchange their partials, every leader computes the result itself,
// and a Float64 sum depends on the order it is taken in: with cluster
// partials 1e16, 1, −1e16 (and 1), (1e16 + 1) − 1e16 is 0 but (−1e16 + 1e16)
// + 1 is 1. On 3 and 4 clusters, where the backbone's numbers choose the
// exchange (the trace says so), every rank must hold the same bits.
func TestLeaderTreeAllreduceSameBitsOnEveryRank(t *testing.T) {
	partials := []float64{1e16, 1, -1e16, 1}
	for _, szs := range [][]int{{2, 3, 1}, {3, 1, 2, 2}} {
		for _, count := range []int{3, 8 << 10} {
			topo := starTopo(szs, false)
			topo.Trace = trace.New(nil)
			sess, err := Build(topo)
			if err != nil {
				t.Fatal(err)
			}
			for _, rk := range sess.Ranks {
				rk.MPI.SetCollMode(mpi.CollHier)
			}
			clusters := sess.Clusters()
			got := make([][]byte, len(sess.Ranks))
			err = sess.Run(func(rank int, comm *mpi.Comm) error {
				// The first rank of a cluster holds its partial, the others 0.
				v := make([]float64, count)
				if c := sess.hier.ClusterOf[rank]; clusters[c][0] == rank {
					for i := range v {
						v[i] = partials[c]
					}
				}
				got[rank] = make([]byte, 8*count)
				return comm.Allreduce(mpi.Float64Bytes(v), got[rank], count, mpi.Float64, mpi.OpSum)
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank := range got {
				if string(got[rank]) != string(got[0]) {
					t.Errorf("%v, %d doubles: rank %d holds %v, rank 0 %v", szs, count, rank,
						mpi.BytesFloat64(got[rank])[0], mpi.BytesFloat64(got[0])[0])
				}
			}
			exchanged := false
			for _, ev := range topo.Trace.Events() {
				exchanged = exchanged || ev.Name == "tree.leader" && ev.Args.Bytes == int64(8*count) && strings.Contains(ev.Args.Class, "allreduce=exchange")
			}
			if !exchanged {
				t.Errorf("%v, %d doubles: no tree.leader instant chose the exchange", szs, count)
			}
		}
	}
}

// TestLeaderTreeBackboneCounts: whatever the leader tree's shape, a two-level
// Barrier puts exactly 2·(clusters − 1) messages on the backbone and a Bcast
// clusters − 1, from a gateway root and from a plain member — net of the same
// session without the operation.
func TestLeaderTreeBackboneCounts(t *testing.T) {
	packets := func(szs []int, op func(comm *mpi.Comm) error) uint64 {
		sess, err := Build(starTopo(szs, true))
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range sess.Ranks {
			rk.MPI.SetCollMode(mpi.CollHier)
		}
		if err := sess.Run(func(_ int, comm *mpi.Comm) error { return op(comm) }); err != nil {
			t.Fatal(err)
		}
		return sess.Networks["bb"].Stats.Packets
	}
	for _, nc := range leaderTreeClusters {
		szs := starSizes(nc, int64(nc))
		szs[nc-1] = 3 // the last rank is a plain member
		n := 0
		for _, sz := range szs {
			n += sz
		}
		idle := packets(szs, func(*mpi.Comm) error { return nil })
		if got := packets(szs, func(comm *mpi.Comm) error { return comm.Barrier() }) - idle; got != uint64(2*(nc-1)) {
			t.Errorf("%d clusters: a Barrier put %d messages on the backbone, want %d", nc, got, 2*(nc-1))
		}
		for _, root := range []int{0, n - 1} {
			got := packets(szs, func(comm *mpi.Comm) error { return comm.Bcast(make([]byte, 64), 64, mpi.Byte, root) }) - idle
			if got != uint64(nc-1) {
				t.Errorf("%d clusters: a Bcast from %d put %d messages on the backbone, want %d", nc, root, got, nc-1)
			}
		}
	}
}
