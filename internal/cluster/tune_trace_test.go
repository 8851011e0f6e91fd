package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/trace"
)

// TestAutotuneCrossingsOnTrace: with tracing on, the MPI_Init sweep on the
// bridged triangle puts every bracket bound it placed on the trace as one
// "tune.cross" ctrl instant on rank 0's track, in table order. The Bcast
// bound is where 2level-seg's and 2level-multi's readings cross between
// 16 KiB and 256 KiB, below the 64 KiB their geometric midpoint would give,
// and the instant carries it as TuneSnapshot reports it.
func TestAutotuneCrossingsOnTrace(t *testing.T) {
	topo := bridgedTriangle()
	topo.Autotune = true
	topo.Trace = trace.New(nil)
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(int, *mpi.Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	bcast := 0
	for _, c := range sess.Ranks[0].MPI.TuneSnapshot() {
		if c.Op != "SwitchPoint" && c.MaxBytes != math.MaxInt {
			want = append(want, fmt.Sprintf("op=%s %d", c.Op, c.MaxBytes))
		}
		if c.Op == "Bcast" && c.Algo == "2level-seg" {
			bcast = c.MaxBytes
		}
	}
	if bcast <= 16<<10 || bcast >= 64<<10 {
		t.Fatalf("Bcast 2level-seg bracket ends at %d B, want inside (16 KiB, 64 KiB)", bcast)
	}
	for _, ev := range topo.Trace.Events() {
		if ev.Name != "tune.cross" {
			continue
		}
		if ev.Kind != trace.KCtrl || ev.Track != 0 {
			t.Errorf("%v: want a ctrl instant on rank 0's track", ev)
		}
		op, _, _ := strings.Cut(ev.Args.Class, ",")
		got = append(got, fmt.Sprintf("%s %d", op, ev.Args.Bytes))
		if op == "op=Bcast" && ev.Args.Bytes == int64(bcast) {
			if !strings.Contains(ev.Args.Class, ",lo=16384,hi=262144,2level-seg=") || !strings.Contains(ev.Args.Class, ",2level-multi=") {
				t.Errorf("Bcast crossing %v does not name the two algorithms and their gap", ev)
			}
			t.Log(ev)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("tune.cross instants %v, want the table's bounds %v", got, want)
	}
}
