package mpi_test

// Tests of the MPI_Init autotuner: the timed sweep must be deterministic
// in the topology, agree across ranks, and actually install a crossover
// table that chooseAlgo consults.

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// autotunedTables builds a topology with Autotune on, runs an empty rank
// program, and returns every rank's crossover-table snapshot.
func autotunedTables(t *testing.T, topo cluster.Topology) [][]mpi.TuneChoice {
	t.Helper()
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	out := make([][]mpi.TuneChoice, len(sess.Ranks))
	for i, rk := range sess.Ranks {
		out[i] = rk.MPI.TuneSnapshot()
	}
	return out
}

// TestAutotuneDeterministic: the same topology always yields the same
// crossover table — virtual time has no noise, so two sweeps must agree
// bracket for bracket — and all ranks of one job install identical tables.
func TestAutotuneDeterministic(t *testing.T) {
	first := autotunedTables(t, twoClusterTopo(3, 3))
	second := autotunedTables(t, twoClusterTopo(3, 3))
	if len(first[0]) == 0 {
		t.Fatal("autotuner installed an empty table on a multi-cluster topology")
	}
	for r := 1; r < len(first); r++ {
		if !reflect.DeepEqual(first[r], first[0]) {
			t.Fatalf("rank %d table differs from rank 0:\n%v\nvs\n%v", r, first[r], first[0])
		}
	}
	if !reflect.DeepEqual(first[0], second[0]) {
		t.Fatalf("same topology produced different tables:\n%v\nvs\n%v", first[0], second[0])
	}
}

// TestAutotuneSingleClusterStillTunes: on a uniform fabric the only
// choice is tree-vs-ring Allreduce; the sweep must still run and produce
// a table covering it. The candidates the sweep times are pinned per shape —
// one cluster, two clusters, the bridged triangle whose clusters front
// several gateways — since a candidate more or less moves every autotuned
// number through the sweep's history.
func TestAutotuneSingleClusterStillTunes(t *testing.T) {
	tables := autotunedTables(t, nNodeTopo(6, "sisci"))
	found := false
	for _, c := range tables[0] {
		if c.Op == "Allreduce" {
			found = true
		}
	}
	if !found {
		t.Fatalf("single-cluster sweep produced no Allreduce brackets: %v", tables[0])
	}

	untuned := map[string]string{"Barrier": "", "Reduce": "", "Gather": ""}
	for _, tc := range []struct {
		name string
		topo cluster.Topology
		want map[string]string
	}{
		{"one cluster", nNodeTopo(6, "sisci"), map[string]string{
			"Bcast":         "flat",
			"Allreduce":     "flat, ring",
			"Allgather":     "flat",
			"Alltoall":      "flat",
			"ReduceScatter": "ring",
		}},
		{"two clusters", twoClusterTopo(3, 2), map[string]string{
			"Bcast":         "flat, 2level, 2level-seg",
			"Allreduce":     "flat, ring, 2level, 2level-ring",
			"Allgather":     "flat, 2level",
			"Alltoall":      "flat, 2level",
			"ReduceScatter": "ring, 2level-ring",
		}},
		{"triangle", triangleTopo(), map[string]string{
			"Bcast":         "flat, 2level, 2level-seg, 2level-multi",
			"Allreduce":     "flat, ring, 2level, 2level-ring, 2level-multi",
			"Allgather":     "flat, 2level, 2level-multi",
			"Alltoall":      "flat, 2level, 2level-multi",
			"ReduceScatter": "ring, 2level-ring",
		}},
	} {
		maps.Copy(tc.want, untuned)
		sess, err := cluster.Build(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		if err := sess.Run(func(rank int, comm *mpi.Comm) error {
			if rank == 0 {
				got = comm.TuneCandidates()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, tc.want) {
			t.Errorf("%s: sweep candidates\n%v\nwant\n%v", tc.name, got, tc.want)
		}
	}
}

// TestAutotuneMeasuresClassSwitchPoints: on a heterogeneous topology the
// init sweep's per-device-class probes measure an eager/rendez-vous
// threshold for every represented class, every rank installs the same
// values, and the thresholds surface as SwitchPoint rows of the
// crossover-table snapshot.
func TestAutotuneMeasuresClassSwitchPoints(t *testing.T) {
	topo := twoClusterTopo(3, 3)
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := sess.Ranks[0].MPI.ClassSwitchPoints()
	for _, class := range []string{"san", "wan"} {
		if want[class] <= 0 {
			t.Errorf("no measured threshold for class %q: %v", class, want)
		}
	}
	for _, rk := range sess.Ranks[1:] {
		if !reflect.DeepEqual(rk.MPI.ClassSwitchPoints(), want) {
			t.Fatalf("rank %d class thresholds %v differ from rank 0's %v",
				rk.Rank, rk.MPI.ClassSwitchPoints(), want)
		}
	}
	rows := 0
	for _, tc := range sess.Ranks[0].MPI.TuneSnapshot() {
		if tc.Op == "SwitchPoint" {
			rows++
			if want[tc.Algo] != tc.MaxBytes {
				t.Errorf("snapshot row %v does not match installed threshold %d", tc, want[tc.Algo])
			}
		}
	}
	if rows != len(want) {
		t.Errorf("snapshot has %d SwitchPoint rows, want %d", rows, len(want))
	}
	// Each rank's ch_mad device reads the table its MPI process holds: the
	// threshold toward a wan peer is the measured wan one.
	for _, rk := range sess.Ranks {
		peer := slices.IndexFunc(sess.Ranks, func(p *cluster.Rank) bool { return sess.LinkClassOf(rk.Rank, p.Rank) == "wan" })
		if peer < 0 {
			t.Fatalf("rank %d has no wan peer", rk.Rank)
		}
		if got, want := rk.ChMad.SwitchPointTo(peer), rk.MPI.ClassSwitchPoints()["wan"]; got != want {
			t.Errorf("rank %d: ch_mad's threshold toward wan peer %d is %d, the measured wan threshold %d", rk.Rank, peer, got, want)
		}
	}
}

// TestTuneTableRejectsBadTriples: the autotuner's install path refuses a
// broadcast triple naming an unknown operation, algorithm or device class,
// or carrying a non-positive bound, with an error naming the triple, and
// installs nothing of a table that holds one; a good table installs its
// class thresholds.
func TestTuneTableRejectsBadTriples(t *testing.T) {
	good := []int64{1, 4096, 0, -3, 16 << 10, 0} // Bcast flat up to 4 KiB; san at 16 KiB
	bad := [][]int64{
		{99, 4096, 0}, // no such operation
		{1, 4096, 99}, // no such algorithm
		{-9, 8192, 0}, // no such device class
		{1, 0, 0},     // empty bracket
		{-4, -1, 0},   // negative threshold
	}
	for _, triple := range bad {
		p := mpi.NewProcess(nil, nil, 0, mpi.WorldGroup(1), nil, nil)
		err := p.InstallTuneTable(append(slices.Clone(good), triple...))
		name := fmt.Sprintf("(%d, %d, %d)", triple[0], triple[1], triple[2])
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("triple %s: err = %v, want an error naming it", name, err)
		}
		if p.TuneSnapshot() != nil {
			t.Errorf("triple %s: installed %v", name, p.TuneSnapshot())
		}
	}
	p := mpi.NewProcess(nil, nil, 0, mpi.WorldGroup(1), nil, nil)
	if err := p.InstallTuneTable(good); err != nil {
		t.Fatal(err)
	}
	want := []mpi.TuneChoice{{Op: "Bcast", MaxBytes: 4096, Algo: "flat"}, {Op: "SwitchPoint", MaxBytes: 16 << 10, Algo: "san"}}
	if got := p.TuneSnapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("TuneSnapshot = %v, want %v", got, want)
	}
}

// TestAutotunedCollectivesStayCorrect: collectives dispatched through the
// measured table (CollAuto after Autotune) still compute correct results
// on a contended-backbone topology — the table changes selection, never
// semantics.
func TestAutotunedCollectivesStayCorrect(t *testing.T) {
	topo := twoClusterTopo(3, 2)
	// Cap the backbone so the sweep times real trunk contention.
	wan := netsim.FastEthernetTCP()
	wan.NetworkBandwidth = wan.Bandwidth
	for i := range topo.Networks {
		if topo.Networks[i].Name == "wan" {
			topo.Networks[i].Params = &wan
		}
	}
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	const n, cnt = 5, 1000
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		in := make([]int64, cnt)
		for i := range in {
			in[i] = int64(rank*cnt + i)
		}
		out := make([]byte, 8*cnt)
		if err := comm.Allreduce(mpi.Int64Bytes(in), out, cnt, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		got := mpi.BytesInt64(out)
		for i := 0; i < cnt; i++ {
			want := int64(0)
			for r := 0; r < n; r++ {
				want += int64(r*cnt + i)
			}
			if got[i] != want {
				return fmt.Errorf("rank %d: allreduce[%d] = %d, want %d", rank, i, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrossoverRows: the tuner puts each bracket bound where the two
// winners' readings cross, each candidate a straight line between adjacent
// sweep sizes, and picks the first candidate on a tie.
func TestCrossoverRows(t *testing.T) {
	sizes := []int{1 << 10, 16 << 10, 256 << 10}
	// line samples a candidate costing base + perByte·size ns at every size.
	line := func(base, perByte float64) []vtime.Duration {
		var out []vtime.Duration
		for _, s := range sizes {
			out = append(out, vtime.Duration(base+perByte*float64(s)))
		}
		return out
	}
	// columns turns per-candidate series into [size][candidate] readings.
	columns := func(cands ...[]vtime.Duration) [][]vtime.Duration {
		out := make([][]vtime.Duration, len(sizes))
		for i := range sizes {
			for _, c := range cands {
				out[i] = append(out[i], c[i])
			}
		}
		return out
	}
	cases := []struct {
		name     string
		readings [][]vtime.Duration
		want     []mpi.TuneRow // bounds within ±slack, candidates exact
		slack    int
	}{
		{
			name:     "lines cross in the first gap",
			readings: columns(line(10e3, 4), line(50e3, 1)), // 40e3/3 B
			want:     []mpi.TuneRow{{13333, 0}, {math.MaxInt, 1}},
			slack:    1,
		},
		{
			name:     "lines cross in the second gap",
			readings: columns(line(0, 2), line(100e3, 1)), // 100e3 B
			want:     []mpi.TuneRow{{100000, 0}, {math.MaxInt, 1}},
			slack:    1,
		},
		{
			name:     "tie at lo goes to the first candidate, bound lo",
			readings: [][]vtime.Duration{{500, 500}, {900, 800}, {9000, 8000}},
			want:     []mpi.TuneRow{{1 << 10, 0}, {math.MaxInt, 1}},
		},
		{
			name:     "the first candidate wins a tie at hi too",
			readings: [][]vtime.Duration{{700, 500}, {800, 800}, {9000, 9500}},
			want:     []mpi.TuneRow{{16<<10 - 1, 1}, {math.MaxInt, 0}},
		},
		{
			name:     "one winner everywhere",
			readings: columns(line(0, 1), line(1, 2)),
			want:     []mpi.TuneRow{{math.MaxInt, 0}},
		},
	}
	for _, c := range cases {
		got, _ := mpi.CrossoverRows(sizes, c.readings)
		ok := len(got) == len(c.want)
		for i := 0; ok && i < len(got); i++ {
			d := got[i].MaxBytes - c.want[i].MaxBytes
			ok = got[i].Cand == c.want[i].Cand && d >= -c.slack && d <= c.slack
		}
		if !ok {
			t.Errorf("%s: rows %v, want %v (bounds ±%d B)", c.name, got, c.want, c.slack)
		}
	}

	// Three candidates that each win one sweep size: one bound per gap.
	got, _ := mpi.CrossoverRows(sizes, [][]vtime.Duration{{1, 5, 9}, {50, 10, 40}, {900, 800, 100}})
	if len(got) != 3 || got[0].Cand != 0 || got[1].Cand != 1 || got[2].Cand != 2 ||
		got[0].MaxBytes < sizes[0] || got[0].MaxBytes >= sizes[1] ||
		got[1].MaxBytes < sizes[1] || got[1].MaxBytes >= sizes[2] {
		t.Errorf("three winners: rows %v, want candidates 0, 1, 2 with one bound in each gap of %v", got, sizes)
	}
}

// TestCrossoverRowsProperty: over random readings (ties included), every
// bound lies in [lo, hi) of the gap where the winner changes, and the table
// looks up each sweep size's fastest candidate, the first on a tie.
func TestCrossoverRowsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	for trial := 0; trial < 2000; trial++ {
		sizes := []int{1 + rng.IntN(64)}
		for len(sizes) < 2+rng.IntN(4) {
			sizes = append(sizes, sizes[len(sizes)-1]+1+rng.IntN(1<<16))
		}
		cands := 2 + rng.IntN(3)
		readings := make([][]vtime.Duration, len(sizes))
		for i := range readings {
			for j := 0; j < cands; j++ {
				readings[i] = append(readings[i], vtime.Duration(1+rng.IntN(6)))
			}
		}
		rows, lookup := mpi.CrossoverRows(sizes, readings)
		prev := 0 // sizes[gap-1] <= bound < sizes[gap], one bound per gap
		for _, r := range rows[:len(rows)-1] {
			gap := slices.IndexFunc(sizes, func(s int) bool { return s > r.MaxBytes })
			if gap <= prev {
				t.Fatalf("sizes %v readings %v: bound %d of rows %v is outside [lo, hi) of a gap of its own", sizes, readings, r.MaxBytes, rows)
			}
			prev = gap
		}
		for i, s := range sizes {
			if want := slices.Index(readings[i], slices.Min(readings[i])); lookup(s) != want {
				t.Fatalf("sizes %v readings %v rows %v: %d B looks up candidate %d, want %d", sizes, readings, rows, s, lookup(s), want)
			}
		}
	}
}
