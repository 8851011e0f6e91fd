package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// load loads fixture packages relative to this package's directory.
func load(t *testing.T, patterns ...string) *Program {
	t.Helper()
	prog, err := Load("", patterns)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	return prog
}

// render flattens diagnostics to "file:line [analyzer] message" with the
// directory stripped, for substring assertions.
func render(prog *Program, diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		out = append(out, strings.Join([]string{
			filepath.Base(pos.Filename), "[" + d.Analyzer + "]", d.Message}, " "))
	}
	return out
}

func countContaining(lines []string, substr string) int {
	n := 0
	for _, l := range lines {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

func TestDeterminismFixture(t *testing.T) {
	prog := load(t, "./testdata/determinism")
	lines := render(prog, Run(prog, []*Analyzer{Determinism}))

	for _, want := range []string{
		"time.Now reads the wall clock",
		"time.Sleep reads the wall clock",
		"global math/rand.Intn",
		"raw go statement",
		"sync.Mutex bypasses the vtime scheduler",
		"native channel",
	} {
		if countContaining(lines, want) == 0 {
			t.Errorf("missing expected finding %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}

	// Collect is flagged, CollectSorted's append-then-sort is not.
	if n := countContaining(lines, "collects map elements in randomized order"); n != 1 {
		t.Errorf("map-collect findings = %d, want 1 (Collect yes, CollectSorted no):\n%s",
			n, strings.Join(lines, "\n"))
	}

	// The //madlint:ignore directive suppresses the violation in ignored.go.
	if n := countContaining(lines, "ignored.go"); n != 0 {
		t.Errorf("suppressed finding leaked from ignored.go:\n%s", strings.Join(lines, "\n"))
	}

	// Trace-sink exemption (tracesink.go): ring.Push calls inside map
	// ranges resolve to internal/trace and are permitted; the same-named
	// local q.Push is the only Push flagged.
	if n := countContaining(lines, "Push called while ranging"); n != 1 {
		t.Errorf("Push-in-range findings = %d, want 1 (q.Push yes, ring.Push exempt):\n%s",
			n, strings.Join(lines, "\n"))
	}
	// ...and the exemption does not blunt the wall-clock rule next to the
	// exempt sink calls.
	if n := countContaining(lines, "tracesink.go [determinism] time.Now"); n != 1 {
		t.Errorf("time.Now in tracesink.go findings = %d, want 1:\n%s",
			n, strings.Join(lines, "\n"))
	}
}

// TestTraceScopeStillLinted pins the exemption's boundary: internal/trace
// is itself simulation scope (its own code is held to every determinism
// rule), while the risky-in-range exemption applies only to calls INTO it.
func TestTraceScopeStillLinted(t *testing.T) {
	if !inSimScope(tracePath) {
		t.Fatalf("inSimScope(%q) = false: the trace package escaped the determinism rules", tracePath)
	}
}

func TestDeterminismScopeRequiresMarker(t *testing.T) {
	// The pktswitch fixture has no //madlint:simulation marker and is
	// outside the simulation import paths, so the determinism analyzer
	// must not touch it.
	prog := load(t, "./testdata/pktswitch")
	if diags := Run(prog, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("determinism fired outside its scope: %v", render(prog, diags))
	}
}

func TestPktSwitchFixture(t *testing.T) {
	prog := load(t, "./testdata/pktswitch")
	lines := render(prog, Run(prog, []*Analyzer{PktSwitch}))
	if len(lines) != 1 {
		t.Fatalf("findings = %d, want exactly 1 (Dispatch):\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "does not handle kTerm") {
		t.Errorf("finding should name the missing constant kTerm: %s", lines[0])
	}
}

func TestVtimeCtxFixture(t *testing.T) {
	prog := load(t, "./testdata/vtimectx")
	lines := render(prog, Run(prog, []*Analyzer{VtimeCtx}))
	if len(lines) != 3 {
		t.Fatalf("findings = %d, want 3 (ArmTimer, Subscribe, Hook; ArmSafe clean):\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	for _, want := range []string{
		"timer callback (Scheduler.After)",
		"fire subscriber (Event.OnFire)",
		"delivery hook (Endpoint.OnDeliver)",
		"Queue.Pop",
		"Event.Wait",
		"Scheduler.Sleep",
	} {
		if countContaining(lines, want) == 0 {
			t.Errorf("missing expected finding %q in:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

func TestDeadExportFixture(t *testing.T) {
	prog := load(t, "./testdata/deadexport")
	lines := render(prog, Run(prog, []*Analyzer{DeadExport}))
	want := []string{
		"deadexport.go [deadexport] exported method Perimeter",
		"deadexport.go [deadexport] exported func Unused",
		"deadexport.go [deadexport] exported func OnlyTested",
		"deadexport.go [deadexport] exported func Self",
	}
	if len(lines) != len(want) {
		t.Fatalf("findings = %d, want %d (Perimeter, Unused, OnlyTested, Self; Area and Kept clean):\n%s",
			len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w+" ") {
			t.Errorf("finding %d = %q, want %q", i, lines[i], w)
		}
	}
}

// TestRepositoryIsClean is the gate that keeps the codebase lint-green:
// the full analyzer suite over every package must report nothing. If this
// fails, fix the code or justify an inline //madlint:ignore.
func TestRepositoryIsClean(t *testing.T) {
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	diags := Run(prog, All())
	for _, l := range render(prog, diags) {
		t.Errorf("unexpected finding: %s", l)
	}
}
