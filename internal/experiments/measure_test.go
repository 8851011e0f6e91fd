package experiments

import (
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
)

// TestCompletionEmptyWindow: completion's counter window holds the operation
// and nothing else. With an operation that does nothing, it takes no time and
// counts no relayed message on the bridged topology, although the session's
// barriers and Finalize relay some, and no bridge byte on the autotuned
// triangle, although the 1 MiB Bcast the same session ran just before it
// crossed every bridge — so what gateway and multileader print needs no
// baseline run, and each of a session's operations reads its own bytes.
func TestCompletionEmptyWindow(t *testing.T) {
	nothing := collOp(func(*mpi.Comm, int) error { return nil })
	took, relayed, relays, err := gatewayRun(gatewayTopo(), mpi.CollHier, 0, nothing)
	if err != nil {
		t.Fatal(err)
	}
	var session uint64
	for _, rs := range relays {
		session += rs.Msgs
	}
	if took != 0 || relayed != 0 || session == 0 {
		t.Errorf("bridged topology: the empty window took %v and counted %d relayed messages (the session %d, want > 0)",
			took, relayed, session)
	}
	times, crossed, err := multiLeaderRun(mpi.CollAuto, collOp(bcast).at(1<<20), nothing.at(0))
	if err != nil {
		t.Fatal(err)
	}
	bcastBytes, empty := crossed[0], crossed[1]
	if times[1] != 0 || len(empty) != 3 || len(bcastBytes) != 3 {
		t.Errorf("triangle: the empty window took %v and sampled bridges %v (the Bcast's %v), want gwAB, gwBC and gwCA",
			times[1], empty, bcastBytes)
	}
	for bridge, bytes := range empty {
		if bytes != 0 {
			t.Errorf("triangle: the empty window counted %d bytes on %s", bytes, bridge)
		}
		if bcastBytes[bridge] == 0 {
			t.Errorf("triangle: the 1 MiB Bcast's window counted no byte on %s", bridge)
		}
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
