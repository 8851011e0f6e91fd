package experiments

import (
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// handWrittenWindow is the sampled empty window as gateway.go spelled it
// out before timed existed, kept as the reference: barrier, rank 0 reads
// the counter, barrier, rank 0 reads it again. It returns the instants of
// rank 0's two readings, the gateway-relayed messages between them, and
// when each rank left the closing barrier.
func handWrittenWindow(t *testing.T) (at [2]vtime.Time, relayed uint64, left []vtime.Time) {
	t.Helper()
	sess, err := forced(gatewayTopo(), mpi.CollHier)
	if err != nil {
		t.Fatal(err)
	}
	left = make([]vtime.Time, len(sess.Ranks))
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		var before uint64
		if rank == 0 {
			before, at[0] = forwardedBy(sess), sess.S.Now()
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		left[rank] = sess.S.Now()
		if rank == 0 {
			relayed, at[1] = forwardedBy(sess)-before, sess.S.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return at, relayed, left
}

// TestTimedEmptyWindow: with a nil op and a sample, timed calls the sample
// twice, both times on rank 0 as it leaves a barrier, and what a counter
// gains between the two calls is the barriers' own traffic — the baseline
// gatewayColl subtracts from every measured window.
func TestTimedEmptyWindow(t *testing.T) {
	wantAt, wantRelayed, left := handWrittenWindow(t)
	elsewhere := false
	for _, at := range left {
		elsewhere = elsewhere || at != left[0]
	}
	if !elsewhere {
		t.Fatal("every rank leaves the closing barrier when rank 0 does: the instants below would not tell rank 0 from another")
	}
	if wantRelayed == 0 {
		t.Fatal("the barriers of the bridged topology cross no gateway: the empty window has nothing to count")
	}

	sess, err := forced(gatewayTopo(), mpi.CollHier)
	if err != nil {
		t.Fatal(err)
	}
	var at []vtime.Time
	var relayed uint64
	perOp, err := timed(sess, 3, 0, nil, func() {
		at = append(at, sess.S.Now())
		relayed = forwardedBy(sess) - relayed
	})
	if err != nil {
		t.Fatal(err)
	}
	if perOp != 0 {
		t.Errorf("an empty window took %v per operation", perOp)
	}
	if len(at) != 2 || at[0] != wantAt[0] || at[1] != wantAt[1] {
		t.Errorf("sample ran at %v, want rank 0's two barrier exits %v", at, wantAt)
	}
	if relayed != wantRelayed {
		t.Errorf("the empty window counted %d relayed messages, the hand-written one %d", relayed, wantRelayed)
	}
	if _, base, _, err := gatewayRun(gatewayTopo(), mpi.CollHier, 3, 0, nil); err != nil || base != wantRelayed {
		t.Errorf("gatewayRun's empty window: %d relayed messages (%v), want %d", base, err, wantRelayed)
	}
}

// TestCSVCarriesTheTablesValues: an experiment rendered as transfer times
// exports transfer times, whatever its id ends in, and says so.
func TestCSVCarriesTheTablesValues(t *testing.T) {
	r := shared(t, "forwarding")
	lines := strings.Split(r.CSV(), "\n")
	if want := "# " + r.Title + " (forwarding, us)"; lines[0] != want {
		t.Errorf("comment line %q, want %q", lines[0], want)
	}
	direct, routed := r.Series[0].Points[0], r.Series[1].Points[0] // 4 B
	if want := fmt.Sprintf("4,%.3f,%.3f", direct.LatencyUS(), routed.LatencyUS()); lines[2] != want {
		t.Errorf("4 B row %q, want %q", lines[2], want)
	}
	for _, cell := range []string{fmt.Sprintf("%.2f", direct.LatencyUS()), fmt.Sprintf("%.2f", routed.LatencyUS())} {
		if !strings.Contains(r.Text, cell) {
			t.Errorf("the table does not show %s", cell)
		}
	}
	if b := shared(t, "fig7b"); b.Unit != unitBandwidth || !strings.HasPrefix(b.CSV(), "# "+b.Title+" (fig7b, MB/s)\n") {
		t.Errorf("fig7b is exported in %q: %q", b.Unit, strings.SplitN(b.CSV(), "\n", 2)[0])
	}
}

// TestUnknownIDNamesTheRegistry: the error lists what can be asked for and
// carries no prefix of its own (cmd/experiments adds the program's).
func TestUnknownIDNamesTheRegistry(t *testing.T) {
	_, err := ByID("x")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	msg := err.Error()
	if strings.HasPrefix(msg, "experiments:") || strings.Contains(msg, ".md") {
		t.Errorf("error %q: prefix doubled by the command, or a file that is not there", msg)
	}
	for _, id := range IDs() {
		if !strings.Contains(msg, id) {
			t.Errorf("error %q does not list %q", msg, id)
		}
	}
	if len(IDs()) != len(registry) || IDs()[0] != "table1" {
		t.Errorf("IDs() = %v", IDs())
	}
}
