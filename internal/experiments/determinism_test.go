package experiments

import "testing"

// TestExperimentsDeterministic pins the bit-identical-runs guarantee the
// madlint determinism rules exist to protect: every source of randomness
// in the simulator is either eliminated (virtual time, cooperative
// scheduling, sorted map iterations) or explicitly seeded (netsim's
// fault-jitter PRNG), so running the same experiment twice in one process
// must render byte-identical stats tables. A diff here means map order,
// wall-clock time or an unseeded generator leaked into simulation
// behavior — exactly the regressions `madlint` hunts statically. The first
// run is the shared suite's; only the second is paid for here.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"gateway", "adaptive", "heteromux", "scale"} {
		t.Run(id, func(t *testing.T) {
			first := shared(t, id)
			second, err := ByID(id)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			sameText(t, "run1", first.Text, "run2", second.Text)
		})
	}
}
