package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one host-clock interval recorded by the benchmark around a call
// into the program: cluster.Build, MPI_Init, one (operation × size) batch
// on rank 0, Finalize with its device audit, or a probe. Spans inside
// the program itself are a later change; the program's own tracer stamps
// virtual time only.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Rep     int    `json:"rep"`    // repetition the span belongs to
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Only the benchmark's
// own goroutine and rank 0's task record, and rank 0 runs while the
// benchmark is blocked inside Session.Run, so the open spans form one
// stack and the innermost open span is the parent of the next. A nil
// recorder records nothing: the timed repetitions run without one.
type recorder struct {
	t0    time.Time
	rep   int
	spans []span
	open  []int // indices into spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Rep: r.rep, Name: name,
		StartNS: time.Since(r.t0).Nanoseconds(),
	})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span and every span opened inside it that is still open
// (a batch cut short by an error).
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[top].EndNS = now
		if top == h {
			return
		}
	}
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, workload string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}
