package netsim

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkPayloadCopy times one copy of a payload serially (the builtin)
// and split across two goroutines at the point Copy would cut it; its
// figures set splitCopyBytes.
func BenchmarkPayloadCopy(b *testing.B) {
	for _, mib := range []int{1, 2, 4, 8} {
		src, dst := make([]byte, mib<<20), make([]byte, mib<<20)
		for i := range src {
			src[i] = byte(i)
		}
		at := len(src) / 2 &^ 63
		b.Run(fmt.Sprintf("%dMiB/serial", mib), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for b.Loop() {
				copy(dst, src)
			}
		})
		b.Run(fmt.Sprintf("%dMiB/split", mib), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for b.Loop() {
				copyAt(dst, src, at)
			}
		})
	}
}

// fill writes a pattern no two nearby offsets share a byte of.
func fill(b []byte, seed int) {
	for i := range b {
		b[i] = byte(i*7 + i>>8 + seed)
	}
}

// TestCopyMatchesBuiltin: at every length around the split point, at 8 MiB
// and three bytes, and from and to an odd address, Copy leaves dst and
// returns what the builtin does, bytes past the copied range included.
func TestCopyMatchesBuiltin(t *testing.T) {
	for _, c := range []struct {
		name              string
		n, srcOff, dstOff int
	}{
		{"threshold-1", splitCopyBytes - 1, 0, 0},
		{"threshold", splitCopyBytes, 0, 0},
		{"threshold+1", splitCopyBytes + 1, 0, 0},
		{"8MiB+3", 8<<20 + 3, 0, 0},
		{"odd and unaligned", splitCopyBytes + 12345, 3, 5},
	} {
		src := make([]byte, c.n+c.srcOff)
		fill(src, 1)
		want, got := make([]byte, c.n+c.dstOff+7), make([]byte, c.n+c.dstOff+7)
		fill(want, 2)
		fill(got, 2)
		wn := copy(want[c.dstOff:], src[c.srcOff:])
		gn := Copy(got[c.dstOff:], src[c.srcOff:])
		if gn != wn || !bytes.Equal(got, want) {
			t.Errorf("%s: Copy returned %d (builtin %d), bytes equal: %t", c.name, gn, wn, bytes.Equal(got, want))
		}
	}
}

// TestCopyOverlapIsBuiltin: overlapping ranges, either way round, are one
// memmove, never two halves moved at once.
func TestCopyOverlapIsBuiltin(t *testing.T) {
	n := splitCopyBytes + 4096
	for _, shift := range []int{1, 64, n / 2, -1, -n / 2} {
		want, got := make([]byte, 2*n), make([]byte, 2*n)
		fill(want, 3)
		fill(got, 3)
		dst, src := n/2+shift, n/2
		if at := splitAt(got[dst:dst+n], got[src:src+n]); at != 0 {
			t.Errorf("shift %d: overlapping ranges split at %d", shift, at)
		}
		copy(want[dst:dst+n], want[src:src+n])
		Copy(got[dst:dst+n], got[src:src+n])
		if !bytes.Equal(got, want) {
			t.Errorf("shift %d: Copy over overlapping ranges differs from the builtin", shift)
		}
	}
}

// mallocs counts the heap allocations of f on the caller's GOMAXPROCS
// (testing.AllocsPerRun would run it on one core).
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// TestCopyOnOneCoreStartsNoGoroutine: with GOMAXPROCS 1 a long copy is the
// builtin on the caller's goroutine: no split point, and no allocation,
// where with GOMAXPROCS 2 the started helper costs its WaitGroup and
// closure.
func TestCopyOnOneCoreStartsNoGoroutine(t *testing.T) {
	src, dst := make([]byte, 4<<20), make([]byte, 4<<20)
	fill(src, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if at := splitAt(dst, src); at != 0 {
		t.Fatalf("GOMAXPROCS 1: split at %d", at)
	}
	if m := mallocs(func() { Copy(dst, src) }); m != 0 {
		t.Errorf("GOMAXPROCS 1: Copy allocated %d times", m)
	}
	runtime.GOMAXPROCS(2)
	if at := splitAt(dst, src); at != len(src)/2 {
		t.Fatalf("GOMAXPROCS 2: split at %d, want %d", at, len(src)/2)
	}
	if m := mallocs(func() { Copy(dst, src) }); m == 0 {
		t.Errorf("GOMAXPROCS 2: a split Copy allocated nothing, so the count above proves nothing")
	}
	if !bytes.Equal(dst, src) {
		t.Error("copy differs")
	}
}

// TestCopyLeavesNoGoroutine: the helper has exited once Copy returns and
// it finishes unwinding; nothing waits on anything afterwards.
func TestCopyLeavesNoGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	src, dst := make([]byte, 8<<20), make([]byte, 8<<20)
	before := runtime.NumGoroutine()
	for range 20 {
		Copy(dst, src)
	}
	// The helper returns right after its Done: give it the turns to unwind.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 20 Copies, %d after", before, after)
	}
}
