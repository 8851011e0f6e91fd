package stats

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchFile is the format of the BENCH_*.json files at the repository
// root, declared here once: the root benchmarks write it, cmd/benchcheck
// reads it. BENCH_collectives.json is experiment, topology and series —
// virtual time only, so it regenerates byte for byte; BENCH_scale.json
// adds the host-dependent planner samples and the run's wall clock.
type BenchFile struct {
	Experiment string         `json:"experiment"`
	Topology   string         `json:"topology"`
	Planner    []PlannerPoint `json:"planner,omitempty"`
	RunRanks   int            `json:"run_ranks,omitempty"`
	RunWallMs  float64        `json:"run_wall_ms,omitempty"`
	Series     []BenchSeries  `json:"series"`
}

// PlannerPoint is one machine size's routing-planner cost sample: the full
// construction + resolution workload (ns, bytes, allocs) and bare plan
// construction (ns).
type PlannerPoint struct {
	Ranks            int   `json:"ranks"`
	WorkloadNsPerOp  int64 `json:"workload_ns_per_op"`
	WorkloadBPerOp   int64 `json:"workload_bytes_per_op"`
	WorkloadAllocs   int64 `json:"workload_allocs_per_op"`
	ConstructNsPerOp int64 `json:"construct_ns_per_op"`
}

// BenchSeries is one recorded curve.
type BenchSeries struct {
	Name   string       `json:"name"`
	Points []BenchPoint `json:"points"`
}

// BenchPoint is one recorded measurement, its transfer time in virtual
// microseconds (a few series encode a count there instead; the file's
// topology text says which).
type BenchPoint struct {
	SizeBytes int     `json:"size_bytes"`
	VirtualUS float64 `json:"virtual_us"`
}

// Add appends measured series to the file.
func (f *BenchFile) Add(series ...*Series) {
	for _, s := range series {
		bs := BenchSeries{Name: s.Name}
		for _, p := range s.Points {
			bs.Points = append(bs.Points, BenchPoint{SizeBytes: p.Size, VirtualUS: p.LatencyUS()})
		}
		f.Series = append(f.Series, bs)
	}
}

// Encode renders the file as it is stored: indented JSON and a final
// newline.
func (f *BenchFile) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	return append(data, '\n'), err
}

// WriteFile stores the file at path.
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

// Values indexes the series: name -> size in bytes -> virtual µs.
func (f *BenchFile) Values() map[string]map[int]float64 {
	out := make(map[string]map[int]float64, len(f.Series))
	for _, s := range f.Series {
		m := make(map[int]float64, len(s.Points))
		for _, p := range s.Points {
			m[p.SizeBytes] = p.VirtualUS
		}
		out[s.Name] = m
	}
	return out
}
