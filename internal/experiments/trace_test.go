package experiments

import (
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/trace"
)

// TestTracingLeavesOutputIdentical pins the tracer's observer contract:
// attaching the process-wide default tracer (the -trace flag path) must
// leave an experiment's rendered output byte-identical to an untraced
// run. Tracing only records — it never perturbs virtual time, scheduling
// order, or any measured quantity.
func TestTracingLeavesOutputIdentical(t *testing.T) {
	off := shared(t, "gateway") // the suite runs untraced

	tr := trace.New(nil)
	cluster.SetDefaultTracer(tr)
	defer cluster.SetDefaultTracer(nil)
	on, err := gatewayCollectives()
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}

	if len(tr.Events()) == 0 {
		t.Fatal("default tracer attached but recorded nothing")
	}
	sameText(t, "tracing off", off.Text, "tracing on", on.Text)
}
