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
// triangle — so what gateway and multileader print needs no baseline run.
func TestCompletionEmptyWindow(t *testing.T) {
	nothing := func(*mpi.Comm, int) error { return nil }
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
	took, crossed, err := multiLeaderRun(mpi.CollAuto, 0, nothing)
	if err != nil {
		t.Fatal(err)
	}
	if took != 0 || len(crossed) != 3 {
		t.Errorf("triangle: the empty window took %v and sampled bridges %v, want gwAB, gwBC and gwCA", took, crossed)
	}
	for bridge, bytes := range crossed {
		if bytes != 0 {
			t.Errorf("triangle: the empty window counted %d bytes on %s", bytes, bridge)
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
