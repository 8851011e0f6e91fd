package stats

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchFile is the format of BENCH_scale.json at the repository root,
// declared here once: the root BenchmarkScaleMachine writes it,
// cmd/benchcheck reads it. It holds host-clock numbers only — the planner
// samples and the 1024-rank run's wall clock; the simulated numbers are
// pinned by internal/experiments/testdata/all.txt and judged by the claims
// ledger there.
type BenchFile struct {
	Experiment string         `json:"experiment"`
	Topology   string         `json:"topology"`
	Planner    []PlannerPoint `json:"planner,omitempty"`
	RunRanks   int            `json:"run_ranks,omitempty"`
	RunWallMs  float64        `json:"run_wall_ms,omitempty"`
}

// PlannerPoint is one machine size's routing-planner cost sample: the full
// construction + resolution workload (ns, bytes, allocs) and bare plan
// construction (ns), with HotGateways gateways' congestion terms set.
type PlannerPoint struct {
	Ranks            int   `json:"ranks"`
	HotGateways      int   `json:"hot_gateways,omitempty"`
	WorkloadNsPerOp  int64 `json:"workload_ns_per_op"`
	WorkloadBPerOp   int64 `json:"workload_bytes_per_op"`
	WorkloadAllocs   int64 `json:"workload_allocs_per_op"`
	ConstructNsPerOp int64 `json:"construct_ns_per_op"`
}

// Encode renders the file as it is stored: indented JSON and a final
// newline.
func (f *BenchFile) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	return append(data, '\n'), err
}

// WriteFile stores the file at path.
//
//madlint:ignore deadexport tests in another package call it (the root BenchmarkScaleMachine writes BENCH_scale.json)
func (f *BenchFile) WriteFile(path string) error {
	data, err := f.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadBenchFile loads a stored file.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(BenchFile)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
