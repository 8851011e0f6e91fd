package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"mpichmad/internal/vtime"
)

func fixedClock(t vtime.Time) func() vtime.Time {
	return func() vtime.Time { return t }
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Instant(0, KPkt, "eager", Args{})
	tr.Span(0, KRndv, "body", 0, Args{})
	tr.Counter(0, KRelay, "depth", 3)
	tr.SetTrackName(0, "rank0")
	tr.SetClock(nil)
	if tr.BeginSession("s") != 0 {
		t.Fatal("nil BeginSession should return 0")
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil Events = %v", evs)
	}
	if tail := tr.Tail(8); tail != nil {
		t.Fatalf("nil Tail = %v", tail)
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var arr []interface{}
	if err := json.Unmarshal([]byte(b.String()), &arr); err != nil {
		t.Fatalf("nil WriteChrome output invalid JSON: %v", err)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("a", "b", 1)
	r.SetMax("a", "b", 2)
	if r.Get("a", "b") != 0 {
		t.Fatal("nil Get != 0")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil Snapshot = %v", snap)
	}
}

func TestRingTail(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Push(Event{TS: vtime.Time(i)})
	}
	tail := r.Tail(3)
	if len(tail) != 3 {
		t.Fatalf("tail len = %d", len(tail))
	}
	for i, want := range []vtime.Time{3, 4, 5} {
		if tail[i].TS != want {
			t.Fatalf("tail[%d].TS = %v, want %v", i, tail[i].TS, want)
		}
	}
	if got := len(r.Tail(0)); got != 4 {
		t.Fatalf("Tail(0) len = %d, want 4 (full ring)", got)
	}
	short := NewRing(4)
	short.Push(Event{TS: 9})
	if got := short.Tail(10); len(got) != 1 || got[0].TS != 9 {
		t.Fatalf("partial ring tail = %v", got)
	}
}

func TestRegistrySnapshotSortedAndAggregated(t *testing.T) {
	r := NewRegistry()
	r.Add("relay.bytes", "gwB", 100)
	r.Add("relay.bytes", "gwA", 7)
	r.Add("relay.bytes", "gwB", 28)
	r.SetMax("relay.qpeak", "gwA", 3)
	r.SetMax("relay.qpeak", "gwA", 2) // lower sample must not regress the peak
	snap := r.Snapshot()
	want := []Metric{
		{"relay.bytes", "gwA", 7},
		{"relay.bytes", "gwB", 128},
		{"relay.qpeak", "gwA", 3},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}
	if r.Get("relay.bytes", "gwB") != 128 {
		t.Fatalf("Get = %d", r.Get("relay.bytes", "gwB"))
	}
}

// TestChromeOutput pins the sink end to end: valid JSON, session and
// track metadata, the three phases, and the arg encoding.
func TestChromeOutput(t *testing.T) {
	now := vtime.Time(0)
	tr := New(func() vtime.Time { return now })
	tr.BeginSession("unit")
	tr.SetTrackName(0, "rank0")
	tr.SetTrackName(2, "net:bb")
	now = 1500
	tr.Instant(0, KRndv, "rndv.req", Args{HasPeer: true, Src: 0, Dst: 8, Bytes: 4096, Seq: 7})
	start := now
	now = 3500
	tr.Span(0, KRndv, "rndv.body", start, Args{HasPeer: true, Src: 0, Dst: 8, Bytes: 1024, Rail: 1, Hop: 2})
	tr.Counter(2, KRelay, "relay.depth", 3)

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	out := b.String()
	var arr []map[string]interface{}
	if err := json.Unmarshal([]byte(out), &arr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	// 2 metadata (process + 2 threads = 3) + 3 events.
	if len(arr) != 6 {
		t.Fatalf("got %d records, want 6:\n%s", len(arr), out)
	}
	for _, want := range []string{
		`"process_name"`, `"unit"`, `"rank0"`, `"net:bb"`,
		`"ph":"X"`, `"ph":"i"`, `"ph":"C"`,
		`"ts":1.500`, `"dur":2.000`,
		`"rail":1,"hop":2`, `"seq":7`, `"value":3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %s:\n%s", want, out)
		}
	}
}

func TestFlightRecorderTail(t *testing.T) {
	now := vtime.Time(0)
	tr := New(func() vtime.Time { return now })
	tr.BeginSession("unit")
	for i := 0; i < DefaultRingSize+10; i++ {
		now = vtime.Time(i) * 1000
		tr.Instant(0, KPkt, "eager", Args{HasPeer: true, Src: int32(i), Dst: 1})
	}
	tail := tr.Tail(4)
	if len(tail) != 4 {
		t.Fatalf("tail len = %d", len(tail))
	}
	// Oldest-first, ending at the most recent event.
	if !strings.Contains(tail[3], "src=73") {
		t.Fatalf("tail[3] = %q, want the last event (src=73)", tail[3])
	}
	if !strings.Contains(tail[0], "src=70") {
		t.Fatalf("tail[0] = %q, want src=70", tail[0])
	}
}

// BenchmarkNilTracer measures the "tracing disabled" cost the tentpole
// requires to be one branch: a nil-receiver call on the hot path.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	a := Args{HasPeer: true, Src: 1, Dst: 2, Bytes: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant(0, KPkt, "eager", a)
	}
}

// BenchmarkNilRegistry: same bar for the metrics side.
func BenchmarkNilRegistry(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add("eager.bytes", "san", 4096)
	}
}

// BenchmarkLiveInstant is the enabled-path cost, for scale: recording
// appends one Event value and rotates the flight ring.
func BenchmarkLiveInstant(b *testing.B) {
	tr := New(fixedClock(0))
	tr.BeginSession("bench")
	a := Args{HasPeer: true, Src: 1, Dst: 2, Bytes: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant(0, KPkt, "eager", a)
	}
}
