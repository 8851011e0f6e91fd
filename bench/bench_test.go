package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the tables in metrics.go (-manifest);
// the file in the repository must be that output, within the limits the
// driver sets on it.
func TestManifestIsTheTables(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(want))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setupBound, maxBound := 0.0, 0.0
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != lower {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
	}
}

func smokeOpts(seed int64, trace bool) options {
	return options{seed: seed, reps: 1, smoke: true, trace: trace}
}

// Every workload, shrunken: each emits every metric BENCHMARK.json names,
// fails no operation, and reads the same numbers off the simulated
// machine when run twice.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, smokeOpts(1, true))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.name, res.Failed, res.Attempted, res.FirstFailure)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.name, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.name, d.Name, v, ok)
			}
		}
		if len(res.PerLayer) != len(perLayer) || len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics emitted", w.name, len(res.EndToEnd), len(res.PerLayer))
		}
		again, err := runWorkload(w, smokeOpts(1, false))
		if err != nil {
			t.Fatalf("%s again: %v", w.name, err)
		}
		if !reflect.DeepEqual(res.Points, again.Points) {
			t.Errorf("%s: the virtual clock read differently on a second run:\n%v\n%v", w.name, res.Points, again.Points)
		}
		for _, d := range endToEnd {
			if d.Exact && res.EndToEnd[d.Name].Value != again.EndToEnd[d.Name].Value {
				t.Errorf("%s: %s differs between two runs", w.name, d.Name)
			}
		}
	}
}

// The separation the workloads were chosen for, visible even shrunken:
// the p2p grid touches no relay, no tuner and no collective schedule
// beyond its barriers, and stays within the paper's pinned figures.
func TestP2PLeavesTheUpperLayersCold(t *testing.T) {
	res, err := runWorkload(workloads[0], smokeOpts(1, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"route.relay_ranks", "mpi.tune_rows", "core.forwarded_msgs", "adi.unexpected"} {
		if v := res.PerLayer[name].Value; v != 0 {
			t.Errorf("%s = %v on p2p_paper", name, v)
		}
	}
	if v := res.PerLayer["netsim.paper_err_max_pct"].Value; v <= 0 || v > 12 {
		t.Errorf("netsim.paper_err_max_pct = %v", v)
	}
}

// The inputs come from the seed and from nothing else.
func TestSeedMakesTheInputs(t *testing.T) {
	a := prepareTriangle(1, true).(*collGrid)
	b := prepareTriangle(1, true).(*collGrid)
	c := prepareTriangle(2, true).(*collGrid)
	if !bytes.Equal(a.pat.bytes, b.pat.bytes) || !reflect.DeepEqual(a.batches, b.batches) {
		t.Error("one seed, two different inputs")
	}
	if bytes.Equal(a.pat.bytes, c.pat.bytes) {
		t.Error("two seeds, the same payload bytes")
	}
	n1, n2 := prepareNBC(1, false).(*nbcHetero), prepareNBC(2, false).(*nbcHetero)
	if reflect.DeepEqual(n1.msgSize, n2.msgSize) || reflect.DeepEqual(n1.slices, n2.slices) {
		t.Error("two seeds, the same message sizes or compute slices")
	}
	p1, p2 := prepareP2P(1, false).(*p2pPaper), prepareP2P(2, false).(*p2pPaper)
	if reflect.DeepEqual(p1.order, p2.order) {
		t.Error("two seeds, the same visiting order")
	}
}

// A wrong byte in a receive buffer is a failed operation.
func TestCorruptedBufferIsCounted(t *testing.T) {
	for _, w := range workloads {
		opt := smokeOpts(1, false)
		opt.corrupt = func(buf []byte) {
			if len(buf) > 0 {
				buf[len(buf)/2] ^= 0x40
			}
		}
		res, err := runWorkload(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed == 0 || res.FirstFailure == "" {
			t.Errorf("%s: every checked buffer was damaged and %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
	}
}

func TestCompare(t *testing.T) {
	base := func() *report {
		return &report{Seed: 1, Workloads: map[string]*result{"p2p_paper": {
			Workload: "p2p_paper", Attempted: 100,
			EndToEnd: map[string]value{
				"setup_s": {Value: 1, Unit: uS}, "host_s": {Value: 1, Unit: uS},
				"sim_latency_us": {Value: 35.8, Unit: uVUS},
			},
			PerLayer: map[string]value{"netsim.packets": {Value: 1000, Unit: uCount}},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		path := filepath.Join(dir, name)
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base())
	cases := []struct {
		name   string
		change func(r *result)
		ok     bool
	}{
		{"identical", func(r *result) {}, true},
		{"host_s within its bound", func(r *result) { r.EndToEnd["host_s"] = value{Value: 1.2, Unit: uS} }, true},
		{"host_s beyond its bound", func(r *result) { r.EndToEnd["host_s"] = value{Value: 1.3, Unit: uS} }, false},
		{"faster is fine", func(r *result) { r.EndToEnd["host_s"] = value{Value: 0.5, Unit: uS} }, true},
		{"virtual clock moved", func(r *result) { r.EndToEnd["sim_latency_us"] = value{Value: 35.80001, Unit: uVUS} }, false},
		{"a count moved", func(r *result) { r.PerLayer["netsim.packets"] = value{Value: 1001, Unit: uCount} }, false},
		{"an operation failed", func(r *result) { r.Failed = 1 }, false},
	}
	for _, c := range cases {
		rep := base()
		c.change(rep.Workloads["p2p_paper"])
		var out bytes.Buffer
		ok, err := compareFiles(&out, a, write("b.json", rep))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: accepted = %v\n%s", c.name, ok, out.String())
		}
	}
}

func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestProfileReader(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Errorf("no sample of %d has spin on its stack", len(samples))
	}
	for stack, want := range map[string]string{
		"runtime.memmove|mpichmad/internal/mpi.UnpackBuf":                         "runtime.memmove_share_pct",
		"mpichmad/internal/vtime.(*Scheduler).Sleep":                              "vtime.host_share_pct",
		"runtime.mallocgc|fmt.Sprintf|mpichmad/internal/vtime.(*Scheduler).Sleep": "runtime.fmt_share_pct",
		"runtime.scanobject|runtime.gcDrain|runtime.gcBgMarkWorker":               "runtime.gc_share_pct",
		"runtime.futex|runtime.notewakeup":                                        "runtime.handoff_share_pct",
		"runtime.mallocgc|mpichmad/internal/core.(*Device).Send":                  "",
	} {
		if got := classify(strings.Split(stack, "|")); got != want {
			t.Errorf("classify(%s) = %q, want %q", stack, got, want)
		}
	}
}

func TestSpansNest(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.begin("left open")
	r.end(inner)
	sibling := r.begin("sibling")
	r.end(sibling)
	r.end(outer)
	parents := map[string]int{}
	for _, s := range r.spans {
		parents[s.Name] = s.Parent
		if s.EndNS < s.StartNS {
			t.Errorf("%s never ended", s.Name)
		}
	}
	want := map[string]int{"outer": 0, "inner": 1, "left open": 2, "sibling": 1}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("nothing"))
	data, err := json.Marshal(r.spans)
	if err != nil || !strings.Contains(string(data), `"parent":1`) {
		t.Errorf("spans do not serialise: %v %s", err, data)
	}
}
