package vtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// The event-order pin of the kernel: seeded random programs over every
// primitive, logging (now, task, what) at every resume and callback. The
// recorded log (testdata/order_fingerprints.txt) must regenerate
// byte-unchanged after any change to the scheduler — it is what decides
// "is this hand-off really the same order?". Same convention as the
// schedule and transport pins: after an *intended* order change, delete
// the file and run the test once to re-record.
//
// Only the exported API is used, so the test compiles against any kernel.

const orderFingerprintFile = "testdata/order_fingerprints.txt"

// orderHead is how many log lines of each program are kept verbatim; the
// whole log is folded into the program's hash.
const orderHead = 40

// orderRand is a private splitmix64, so the programs do not depend on any
// library generator's stream.
type orderRand uint64

func (r *orderRand) n(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// orderGrid keeps every delay on a coarse grid (with repeats and zero), so
// equal deadlines, item-and-timeout on the same tick and zero sleeps all
// occur often.
var orderGrid = []Duration{0, Microsecond, Microsecond, 2 * Microsecond, 3 * Microsecond, 5 * Microsecond, 8 * Microsecond}

type orderProg struct {
	s       *Scheduler
	lines   []string
	sems    []*Sem
	evs     []*Event
	qs      []*Queue[int]
	spawned int
	maxKids int
}

func (p *orderProg) log(task, what string) {
	p.lines = append(p.lines, fmt.Sprintf("%d %s %s", int64(p.s.Now()), task, what))
}

func (p *orderProg) dur(r *orderRand) Duration { return orderGrid[r.n(len(orderGrid))] }

// spawn starts a child (task or daemon) with its own generator; callable
// from a task or from a callback.
func (p *orderProg) spawn(parent string, r *orderRand) {
	if p.spawned >= p.maxKids {
		return
	}
	p.spawned++
	name := fmt.Sprintf("%s.k%d", parent, p.spawned)
	seed := orderRand(r.n(1 << 30))
	if r.n(4) == 0 {
		p.s.GoDaemon(name, p.body(name, &seed, 3+r.n(6)))
	} else {
		p.s.Go(name, p.body(name, &seed, 3+r.n(6)))
	}
}

func (p *orderProg) body(name string, r *orderRand, steps int) func() {
	s := p.s
	return func() {
		p.log(name, "start")
		for i := 0; i < steps; i++ {
			sem := p.sems[r.n(len(p.sems))]
			ev := p.evs[r.n(len(p.evs))]
			qi := r.n(len(p.qs))
			q := p.qs[qi]
			d := p.dur(r)
			switch r.n(16) {
			case 0, 1, 2:
				s.Sleep(d)
				p.log(name, fmt.Sprintf("slept %d", d))
			case 3:
				s.Yield()
				p.log(name, "yielded")
			case 4:
				sem.Acquire()
				p.log(name, "acquired")
				if d > 0 {
					s.Sleep(d)
				} else {
					s.Yield()
				}
				sem.Release()
				p.log(name, fmt.Sprintf("released waiting=%d", sem.Waiting()))
			case 5: // the permit comes home from a callback
				sem.Acquire()
				p.log(name, "acquired for cb")
				s.After(d, func() {
					p.log("cb", "release for "+name)
					sem.Release()
				})
			case 6:
				ev.Wait()
				p.log(name, "event seen")
			case 7:
				p.log(name, fmt.Sprintf("fire fired=%v", ev.Fired()))
				ev.Fire()
			case 8:
				cancel := ev.OnFire(func() { p.log("onfire", "for "+name) })
				if r.n(2) == 0 {
					s.Sleep(d)
					p.log(name, "cancel after sleep")
				}
				cancel()
			case 9:
				q.Push(i)
				p.log(name, fmt.Sprintf("pushed q%d len=%d", qi, q.Len()))
			case 10, 11:
				v, ok := q.PopTimeout(d)
				p.log(name, fmt.Sprintf("poptimeout q%d %d %d %v", qi, d, v, ok))
			case 12: // a callback that wakes a popper
				s.After(d, func() {
					p.log("cb", fmt.Sprintf("push q%d for %s", qi, name))
					q.Push(100 + i)
				})
			case 13: // a callback that spawns
				s.After(d, func() {
					p.log("cb", "spawn for "+name)
					p.spawn(name, r)
				})
			case 14:
				p.spawn(name, r)
			case 15:
				_, popped := q.TryPop()
				got := sem.TryAcquire()
				if got {
					sem.Release()
				}
				p.log(name, fmt.Sprintf("trypop q%d %v tryacquire %v", qi, popped, got))
			}
		}
		p.log(name, "end")
	}
}

// orderProgram runs program k and returns its line group.
func orderProgram(k int) []string {
	sizes := []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	n := sizes[k%len(sizes)]
	r := orderRand(k*7919 + 1)
	s := New()
	p := &orderProg{s: s, maxKids: n}
	for i := 0; i < 3; i++ {
		p.sems = append(p.sems, NewSem(s, fmt.Sprintf("sem%d", i), 1+i%2))
		p.qs = append(p.qs, NewQueue[int](s, fmt.Sprintf("q%d", i)))
	}
	// Every event has a backstop callback, so a Wait always ends; tasks
	// may fire it earlier.
	for i := 0; i < 6; i++ {
		ev := NewEvent(s, fmt.Sprintf("ev%d", i))
		p.evs = append(p.evs, ev)
		s.At(Time((2+5*i)*int(Microsecond)), func() {
			p.log("cb", fmt.Sprintf("backstop ev%d fired=%v", i, ev.Fired()))
			ev.Fire()
		})
	}
	for i := 0; i < n; i++ {
		seed := orderRand(r.n(1 << 30))
		name := fmt.Sprintf("t%d", i)
		switch {
		case i%5 == 4: // a consumer daemon, blocked in Pop when the run ends
			q := p.qs[i%len(p.qs)]
			s.GoDaemon(name, func() {
				for {
					v := q.Pop()
					p.log(name, fmt.Sprintf("popped %d", v))
					if seed.n(3) == 0 {
						s.Sleep(p.dur(&seed))
					}
				}
			})
		case i%5 == 3 && k%8 != 3: // a polling daemon, asleep when the run ends (in the deadlock programs its timers would make a livelock of it)
			s.GoDaemon(name, func() {
				for {
					s.Sleep(Microsecond + p.dur(&seed))
					p.log(name, "polled")
				}
			})
		default:
			s.Go(name, p.body(name, &seed, 5+r.n(30)))
		}
	}
	switch k % 8 {
	case 3: // ends in a deadlock once everything else has drained
		never := NewEvent(s, "never")
		s.Go("stuck", func() { never.Wait() })
	case 7: // ends on the virtual deadline
		s.SetDeadline(Time(25 * Microsecond))
	}

	err := s.Run()
	h := fnv.New64a()
	for _, l := range p.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	end := "ok"
	var de *DeadlockError
	if errors.As(err, &de) {
		end = strings.ReplaceAll(strings.TrimSuffix(err.Error(), "\n"), "\n", " |")
	} else if err != nil {
		end = strings.SplitN(err.Error(), "\n", 2)[0]
	}
	out := []string{fmt.Sprintf("program %d tasks=%d: events=%d hash=%016x final=%d %s",
		k, n, len(p.lines), h.Sum64(), int64(s.Now()), end)}
	for i := 0; i < len(p.lines) && i < orderHead; i++ {
		out = append(out, "  "+p.lines[i])
	}
	return out
}

func TestOrderFingerprint(t *testing.T) {
	var got []string
	for k := 0; k < 44; k++ {
		got = append(got, orderProgram(k)...)
	}
	raw, err := os.ReadFile(orderFingerprintFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orderFingerprintFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: recorded %d lines; review and commit it", orderFingerprintFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("fingerprint has %d lines, %s has %d", len(got), orderFingerprintFile, len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... and %d more differing lines", bad-20)
	}
}
