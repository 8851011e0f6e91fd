package netsim

import (
	"runtime"
	"sync"
	"unsafe"
)

// splitCopyBytes is the length from which Copy splits a copy across two
// cores: the smallest size at which BenchmarkPayloadCopy's split beat the
// builtin (go1.24, a 2-vCPU container, GOMAXPROCS 2, -count 3), serial
// against split:
//
//	1 MiB   51-60 µs against  73-76 µs (a loss)
//	2 MiB 205-224 µs against 157-162 µs
//	4 MiB 412-429 µs against 267-278 µs
//	8 MiB 842-866 µs against 495-502 µs
const splitCopyBytes = 2 << 20

// Copy is the one function that moves message payload between two
// buffers: Madeleine's settle, Unpack and Take, the devices' copies into
// and out of wire buffers, segments and stashes, and the collective
// schedules' local copies all call it. It is the builtin copy, with the
// same result. A copy of at least splitCopyBytes, between buffers that do
// not overlap, on a host that runs Go on more than one core, moves its
// second half on a goroutine of its own while the caller moves the first,
// and returns once both are done. The bytes are the same and the caller
// continues only after the last of them has landed, so no simulated
// clock, queue or trace can tell the two apart: only the host time moves.
func Copy(dst, src []byte) int {
	if len(dst) < splitCopyBytes || len(src) < splitCopyBytes {
		return copy(dst, src)
	}
	return copyAt(dst, src, splitAt(dst, src))
}

// copyAt copies src to dst, the bytes from at on on a goroutine of its own
// (all of them on the caller's when at is 0). It is out of line, so that
// Copy inlines and a short copy pays no call.
func copyAt(dst, src []byte, at int) int {
	if at == 0 {
		return copy(dst, src)
	}
	n := min(len(dst), len(src))
	//madlint:ignore determinism the helper joins before Copy returns, so it runs inside one scheduler step and moves only bytes
	var wg sync.WaitGroup
	wg.Add(1)
	//madlint:ignore determinism the second half of one host copy, joined below; it touches no simulation state
	go func(dst, src []byte) {
		copy(dst, src)
		wg.Done()
	}(dst[at:n], src[at:n])
	copy(dst[:at], src[:at])
	wg.Wait()
	return n
}

// splitAt is where Copy cuts a long copy from src to dst in two, a
// multiple of 64 bytes (a cache line), or 0 when it copies in one piece: on
// one core, or when the two ranges overlap (the builtin copy is a memmove,
// and halves moved at once would read bytes the other half overwrote).
func splitAt(dst, src []byte) int {
	n := min(len(dst), len(src))
	if runtime.GOMAXPROCS(0) < 2 {
		return 0
	}
	d, s := uintptr(unsafe.Pointer(unsafe.SliceData(dst))), uintptr(unsafe.Pointer(unsafe.SliceData(src)))
	if d < s+uintptr(n) && s < d+uintptr(n) {
		return 0
	}
	return n / 2 &^ 63
}
