package netsim

import (
	"math/bits"
	"testing"
)

// Buf is one wire buffer of a BufList: B is the payload, resliced to the
// requested length at each Get. Whoever holds the Buf owns B until it
// calls Release; only a BufList makes Bufs, so nothing else can enter one.
type Buf struct {
	B    []byte
	list *BufList
	next *Buf // the buffer that went home before this one, while home
	home bool // released, sitting in its list
}

// BufList is a free list of wire buffers in power-of-two size classes,
// LIFO per class. Everything in a simulation runs on Scheduler.Run's
// goroutine, so the list is not synchronised, and it never gives memory
// back unless told to (Drop): a session's lists die with the session. The
// zero value is ready to use.
type BufList struct {
	free [bits.UintSize]*Buf // free[c] is the last buffer of capacity 1<<c to come home
	out  int
}

func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get hands out a buffer of length n. Its bytes are whatever the previous
// holder left: the caller overwrites all of them. A fresh buffer is no
// exception — in a test binary it comes poisoned like a released one, so a
// holder that leaned on make's zeros fails on first use, not on reuse.
func (l *BufList) Get(n int) *Buf {
	c := sizeClass(n)
	l.out++
	if b := l.free[c]; b != nil {
		l.free[c], b.next = b.next, nil
		b.B, b.home = b.B[:n], false
		return b
	}
	b := &Buf{B: make([]byte, n, 1<<c), list: l}
	if testing.Testing() {
		poison(b.B)
	}
	return b
}

// Drop forgets every buffer sitting home, for the GC to take; buffers
// still out come home as before. For a holder whose working set has just
// shrunk for good — the list itself never decides to.
func (l *BufList) Drop() { clear(l.free[:]) }

// Out reports buffers handed out minus buffers released: 0 once every
// message of a session has been consumed.
//
//madlint:ignore deadexport tests in other packages call it (every wire buffer home at the end of a session)
func (l *BufList) Out() int { return l.out }

// Release sends the buffer home to the list that made it, wherever it was
// consumed. The holder must not touch B afterwards; in a test binary the
// bytes are overwritten so that a reader which kept them sees garbage
// instead of a plausible stale payload. Releasing twice is a bug and
// panics.
func (b *Buf) Release() {
	if b.home {
		panic("netsim: wire buffer released twice")
	}
	if testing.Testing() {
		poison(b.B)
	}
	b.home = true
	l := b.list
	l.out--
	c := sizeClass(cap(b.B))
	l.free[c], b.next = b, l.free[c]
}

func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
