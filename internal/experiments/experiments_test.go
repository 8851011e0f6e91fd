package experiments

// The suite run the package's tests share, and the registry's own tests. The
// paper's *shape* claims — who wins, by what factor, where crossovers fall —
// and its published figures (Tables 1 and 2) are rows of claims_test.go.

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"mpichmad/internal/cluster"
)

// suite is the complete experiment suite, run once per test binary — the
// same path as `cmd/experiments -exp all` — and shared by every test that
// only needs to look at an experiment's output, so `go test` pays for each
// heavy experiment once here plus at most one deliberate re-run (the
// determinism and tracing comparisons).
var suite struct {
	once    sync.Once
	results []*Result
	err     error
}

// allOnce returns the shared suite results, running All on first use.
func allOnce(t *testing.T) []*Result {
	t.Helper()
	suite.once.Do(func() { suite.results, suite.err = All() })
	if suite.err != nil {
		t.Fatal(suite.err)
	}
	return suite.results
}

// shared returns one experiment's result from the shared suite run.
func shared(t *testing.T, id string) *Result {
	t.Helper()
	for _, r := range allOnce(t) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("suite has no experiment %q", id)
	return nil
}

// sameText fails the test, naming each diverging line, unless two
// renderings of one experiment are byte-identical.
func sameText(t *testing.T, nameA, a, nameB, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			t.Errorf("line %d diverged:\n  %s: %s\n  %s: %s", i+1, nameA, x, nameB, y)
		}
	}
	if !t.Failed() {
		t.Error("texts differ but no line diverged (trailing whitespace?)")
	}
}

func TestAllAndByID(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	r, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "Table 1") {
		t.Fatalf("text: %s", r.Text)
	}
}

// TestAllRegeneratesEveryArtifact checks the complete experiment suite:
// each artifact rendered non-trivially, in paper order, and carries the id
// the registry files it under — All and ByID read that one table, so an
// artifact whose id matches its registry row is reachable through ByID.
func TestAllRegeneratesEveryArtifact(t *testing.T) {
	results := allOnce(t)
	wantIDs := []string{
		"table1", "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b",
		"fig9a", "fig9b", "table2", "ablation-switch", "ablation-split",
		"forwarding", "hcoll", "gateway", "adaptive", "heteromux",
		"multileader", "scale",
	}
	if len(results) != len(wantIDs) {
		t.Fatalf("All produced %d artifacts, want %d", len(results), len(wantIDs))
	}
	for i, r := range results {
		if r.ID != wantIDs[i] {
			t.Errorf("artifact %d is %q, want %q", i, r.ID, wantIDs[i])
		}
		if r.ID != registry[i].id {
			t.Errorf("artifact %d calls itself %q but is registered as %q", i, r.ID, registry[i].id)
		}
		if len(r.Text) < 40 {
			t.Errorf("%s rendered suspiciously short output", r.ID)
		}
	}
}

// A session that is wired but never run (a Build-error path, a planning
// tool) must cost no goroutine: the 1024-rank machine has ~3 polling
// threads per rank, and each used to park one from Build on.
func TestBuildWithoutRunStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	sess, err := cluster.Build(ScaleTopo(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	// More, not different: a goroutine of an earlier test's session may
	// still be on its way out and leave the count lower.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Build of %d ranks, %d before", n, len(sess.Ranks), before)
	}
}
