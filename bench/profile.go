package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto): just the fields needed
// to fold CPU samples by the function they landed in. The standard
// library has no decoder for the format and the benchmark adds no
// dependency.

type pbReader struct{ b []byte }

var errProfile = errors.New("bench: malformed CPU profile")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProfile
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProfile
}

// field reads one field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped.
func (r *pbReader) field() (num int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errProfile
			}
			data, r.b = r.b[:n:n], r.b[n:]
			if data == nil {
				data = []byte{} // packed() tells the wire types apart by nil
			}
		}
	case 5:
		err = r.skip(4)
	default:
		err = errProfile
	}
	return num, val, data, err
}

func (r *pbReader) skip(n int) error {
	if n > len(r.b) {
		return errProfile
	}
	r.b = r.b[n:]
	return nil
}

// packed appends the values of a repeated integer field, which arrives
// either packed (data) or one value at a time (val).
func packed(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// stackSample is one profile sample: the function names of its stack,
// leaf first, and its CPU time value.
type stackSample struct {
	stack []string
	value int64
}

// parseProfile decodes a CPU profile into samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	top := pbReader{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := pbReader{data}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = packed(s.locs, v, d)
				case 2:
					s.vals, err = packed(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := pbReader{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.vals[len(s.vals)-1])} // last value type: cpu nanoseconds
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// The repository's packages, whose functions are counted under
// <package>.host_share_pct.
const internalPrefix = "mpichmad/internal/"

var shareLayers = []string{"vtime", "netsim", "madeleine", "core", "adi", "mpi", "cluster", "route", "trace"}

// The Go runtime functions a goroutine hand-off spends its time in: the
// simulator runs one goroutine per task and passes a token over channels.
var handoffFuncs = []string{
	"runtime.futex", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.sellock", "runtime.selunlock", "runtime.lock", "runtime.unlock",
	"runtime.gopark", "runtime.park_m", "runtime.goready", "runtime.ready",
	"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.mcall",
	"runtime.gogo", "runtime.runqget", "runtime.runqput", "runtime.runqgrab",
	"runtime.runqsteal", "runtime.stealWork", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep",
	"runtime.send", "runtime.recv", "runtime.sendDirect", "runtime.recvDirect",
	"runtime.acquireSudog", "runtime.releaseSudog", "runtime.casgstatus",
	"runtime.osyield", "runtime.usleep", "runtime.procyield", "runtime.pidleget",
	"runtime.pidleput", "runtime.mPark", "runtime.resetspinning", "runtime.checkTimers",
	"runtime.dropg", "runtime.globrunqget", "runtime.netpoll", "runtime.nanotime",
	"runtime.(*waitq)", "runtime.(*hchan)", "runtime.(*mLockProfile)", "runtime.semasleep",
	"runtime.semawakeup", "runtime.goschedImpl", "runtime.gosched_m", "runtime.injectglist",
	"runtime.(*randomOrder)", "runtime.(*randomEnum)", "runtime.pMask", "runtime.(*timers)",
}

// Stack roots that mean the sample is garbage-collector work, whichever
// function it landed in.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
	"runtime.gcMarkDone", "runtime.(*mheap).reclaim", "runtime.sweepone",
}

func hasPrefixIn(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// classify names the share a sample belongs to, "" for none of them.
// Shares are flat — a sample counts for the function it landed in — with
// two exceptions that would otherwise dissolve into mallocgc, memmove and
// friends: garbage collection is recognised by the root of the stack, and
// string formatting by any fmt frame on it (fmt calls nothing of the
// simulator's back).
func classify(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	for _, fn := range stack {
		if hasPrefixIn(fn, gcRoots) {
			return "runtime.gc_share_pct"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "fmt.") {
			return "runtime.fmt_share_pct"
		}
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "runtime.memmove"), strings.HasPrefix(leaf, "runtime.memclr"):
		return "runtime.memmove_share_pct"
	case hasPrefixIn(leaf, handoffFuncs):
		return "runtime.handoff_share_pct"
	case strings.HasPrefix(leaf, internalPrefix):
		rest := leaf[len(internalPrefix):]
		for _, l := range shareLayers {
			if strings.HasPrefix(rest, l+".") {
				return l + ".host_share_pct"
			}
		}
	}
	return ""
}

// cpuShares folds a CPU profile into the *_share_pct metrics: each is the
// percentage of all sampled CPU time. Everything unclassified (the rest
// of the runtime, the benchmark's own checks) is in none of them, so the
// shares sum to less than 100.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	sums := map[string]int64{}
	for _, s := range samples {
		total += s.value
		if k := classify(s.stack); k != "" {
			sums[k] += s.value
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("bench: the CPU profile holds no samples (is SIGPROF profiling available here?)")
	}
	out := map[string]float64{
		"runtime.gc_share_pct": 0, "runtime.fmt_share_pct": 0,
		"runtime.memmove_share_pct": 0, "runtime.handoff_share_pct": 0,
	}
	for _, l := range shareLayers {
		out[l+".host_share_pct"] = 0
	}
	for k, v := range sums {
		out[k] = 100 * float64(v) / float64(total)
	}
	return out, len(samples), nil
}
