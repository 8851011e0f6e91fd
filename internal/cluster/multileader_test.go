package cluster

// Multi-leader collective tests: leader-set election shape, byte
// equivalence of the sharded two-level schedules against the single-
// leader and flat references on random multi-cluster topologies, and the
// backbone-crossing split — the inter-cluster phase engaging every
// gateway instead of funneling through one.

import (
	"fmt"
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
// one member per distinct gateway net, the primary leader first, gateways
// distinct and members in their own cluster.
func TestLeaderSetsShape(t *testing.T) {
	sess, err := Build(ringClusterTopo([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Hierarchy()
	if h.NumClusters() != 3 {
		t.Fatalf("discovered %d clusters, want 3", h.NumClusters())
	}
	if len(h.LeaderSets) != 3 || len(h.LeaderGateways) != 3 {
		t.Fatalf("LeaderSets/LeaderGateways = %v/%v, want 3 entries each",
			h.LeaderSets, h.LeaderGateways)
	}
	for ci, set := range h.LeaderSets {
		if len(set) != 2 {
			t.Fatalf("cluster %d leader set %v, want 2 members (two bridges per island)", ci, set)
		}
		if set[0] != h.Leaders[ci] {
			t.Fatalf("cluster %d leader set %v does not lead with primary %d", ci, set, h.Leaders[ci])
		}
		gws := h.LeaderGateways[ci]
		if len(gws) != len(set) {
			t.Fatalf("cluster %d gateway labels %v do not match set %v", ci, gws, set)
		}
		seenGW := map[string]bool{}
		seenRank := map[int]bool{}
		for i, r := range set {
			if sess.ClusterOf(r) != ci {
				t.Fatalf("cluster %d co-leader %d lives in cluster %d", ci, r, sess.ClusterOf(r))
			}
			if seenRank[r] {
				t.Fatalf("cluster %d leader set %v repeats rank %d", ci, set, r)
			}
			seenRank[r] = true
			if gws[i] == "" || seenGW[gws[i]] {
				t.Fatalf("cluster %d gateway labels %v not distinct and non-empty", ci, gws)
			}
			seenGW[gws[i]] = true
		}
	}
	// A chain without alternates keeps sets at one member: the middle
	// cluster of the ring minus one bridge... covered by the two-cluster
	// single-bridge shape instead.
	sess2, err := Build(ringClusterTopo([]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for ci, set := range sess2.Hierarchy().LeaderSets {
		if len(set) != 2 {
			t.Fatalf("two-island ring: cluster %d set %v, want 2 (both bridges)", ci, set)
		}
	}
}

// multiCollOutputs runs the collective suite on a ring-cluster session
// with the given algorithm family forced and returns every observable
// output, keyed for comparison across families.
func multiCollOutputs(t *testing.T, szs []int, mode mpi.CollMode,
	seed byte, count, root int, op mpi.Op) map[string][]byte {
	t.Helper()
	sess, err := Build(ringClusterTopo(szs))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sz := range szs {
		n += sz
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mode)
	}
	out := make(map[string][]byte)
	record := func(what string, rank int, buf []byte) {
		out[fmt.Sprintf("%s/r%d", what, rank)] = append([]byte(nil), buf...)
	}
	input := func(rank int) []int64 {
		v := make([]int64, count)
		for i := range v {
			v[i] = int64((int(seed)+rank*11+i*5)%9) - 4 // small: OpProd stays exact
		}
		return v
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, 8*count)
		if rank == root {
			copy(buf, mpi.Int64Bytes(input(rank)))
		}
		if err := comm.Bcast(buf, count, mpi.Int64, root); err != nil {
			return err
		}
		record("bcast", rank, buf)
		all := make([]byte, 8*count)
		if err := comm.Allreduce(mpi.Int64Bytes(input(rank)), all, count, mpi.Int64, op); err != nil {
			return err
		}
		record("allreduce", rank, all)
		ag := make([]byte, 8*count*n)
		if err := comm.Allgather(mpi.Int64Bytes(input(rank)), ag, count, mpi.Int64); err != nil {
			return err
		}
		record("allgather", rank, ag)
		a2a := make([]int64, count*n)
		for i := range a2a {
			a2a[i] = int64(rank*1000 + i)
		}
		a2aOut := make([]byte, 8*count*n)
		if err := comm.Alltoall(mpi.Int64Bytes(a2a), a2aOut, count, mpi.Int64); err != nil {
			return err
		}
		record("alltoall", rank, a2aOut)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMultiLeaderEquivalence: on random ring-cluster shapes, payloads,
// roots and ops, the multi-leader collectives are byte-identical to the
// single-leader two-level form and to the flat reference.
func TestMultiLeaderEquivalence(t *testing.T) {
	f := func(seed, nc, s0, s1, s2, rootSel, opIdx, length uint8) bool {
		ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd}
		szs := []int{int(s0)%3 + 1, int(s1)%3 + 1, int(s2)%3 + 1}[:int(nc)%2+2]
		n := 0
		for _, sz := range szs {
			n += sz
		}
		root := int(rootSel) % n
		op := ops[int(opIdx)%len(ops)]
		// Counts straddling the shard granularity: smaller than, equal to
		// and larger than typical leader-set sizes.
		count := int(length)%29 + 1
		multi := multiCollOutputs(t, szs, mpi.CollHierMulti, seed, count, root, op)
		single := multiCollOutputs(t, szs, mpi.CollHier, seed, count, root, op)
		flat := multiCollOutputs(t, szs, mpi.CollFlat, seed, count, root, op)
		if len(multi) != len(single) || len(multi) != len(flat) {
			t.Errorf("output key sets differ: multi %d single %d flat %d",
				len(multi), len(single), len(flat))
			return false
		}
		for k, mv := range multi {
			if string(mv) != string(single[k]) {
				t.Errorf("shape %v root %d op %s count %d: %s: multi %v != single %v",
					szs, root, op.Name(), count, k, mpi.BytesInt64(mv), mpi.BytesInt64(single[k]))
				return false
			}
			if string(mv) != string(flat[k]) {
				t.Errorf("shape %v root %d op %s count %d: %s: multi %v != flat %v",
					szs, root, op.Name(), count, k, mpi.BytesInt64(mv), mpi.BytesInt64(flat[k]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
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
	for r, dev := range sess.devs {
		want := 0
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
	for r, dev := range sess2.devs {
		if dev.RelayWindow != DefaultRelayWindow {
			t.Errorf("untuned session: rank %d RelayWindow = %d, want %d",
				r, dev.RelayWindow, DefaultRelayWindow)
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
