//madlint:simulation

// Package badsim is a madlint self-test fixture. Every construct below
// compiles fine and violates the determinism rules; the analyzer tests
// (and the CI self-test) assert that madlint rejects this package.
package badsim

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Clock leaks the wall clock into simulation state.
func Clock() int64 { return time.Now().UnixNano() }

// Pause blocks the real OS thread instead of virtual time.
func Pause() { time.Sleep(time.Millisecond) }

// Jitter draws from the process-global rand source.
func Jitter() int { return rand.Intn(8) }

// Spawn escapes the scheduler's run token.
func Spawn(done func()) {
	go done()
}

// Guarded smuggles preemptive locking into cooperative code.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Bump increments under the forbidden lock.
func (g *Guarded) Bump() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// Pipe builds a native channel.
func Pipe() chan int {
	return make(chan int, 1)
}

// Collect gathers map values in randomized order and never sorts them.
func Collect(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// CollectSorted is the legal version of Collect: the append-then-sort
// pattern must NOT be flagged.
func CollectSorted(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Fma adds and subtracts unrounded float products, which a CPU with fused
// multiply-add may round once: three findings, one per product.
func Fma(x, y, z float64) float64 {
	z += x * y
	z -= (x * y)
	return z - x*y
}

// FmaRounded is the legal version of Fma: each product is converted before
// it is added, a constant product is exact, and integers never round.
func FmaRounded(x, y, z float64, i, j int) float64 {
	const half = 0.5 * 1
	z += float64(x * y)
	z -= half
	i += i * j
	return float64(x*y) + z + float64(i*j) + half*2
}
