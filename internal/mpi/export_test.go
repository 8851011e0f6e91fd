package mpi

import (
	"slices"
	"strings"

	"mpichmad/internal/vtime"
)

// FlatView is the identity of the communicator's cached one-cluster view,
// nil before a flat form has compiled against it.
func (c *Comm) FlatView() *commTopo { return c.flat }

// ViewLeaders is the leader (comm rank) of every cluster in the dense view
// the communicator's next collective compiles against; asking builds the
// view as a first collective would.
func (c *Comm) ViewLeaders() []int { return append([]int(nil), c.topo().leaders...) }

// View is the communicator's dense view as a collective would see it: the
// group's part, which ranks may share, and this rank's remote clusters.
func (c *Comm) View() (clusterOf []int, clusters [][]int, remote []int) {
	ct := c.topo()
	return ct.clusterOf, ct.clusters, ct.remote
}

// Couple is one co-leader couple of the multi-leader forms' pair table: the
// ranks at its two ends, whether they front one bridge, and the chunk this
// rank derives for it.
type Couple struct {
	X, Y   int
	Direct bool
	Chunk  int
}

// Couples lists every couple of the communicator's view, pair by pair.
func (c *Comm) Couples() (out []Couple) {
	for _, row := range c.topo().relays {
		for _, rs := range row {
			for _, r := range rs {
				out = append(out, Couple{r.x, r.y, r.direct, c.chunkBytes(r)})
			}
		}
	}
	return out
}

// Slabbing is how the multi-leader forms cut an exchange in which every
// cluster pair carries size bytes, in elements of es bytes: n slabs of w.
func (c *Comm) Slabbing(size, es int) (n, w int) {
	return c.topo().slabbing(c.chunkBytes, es, func(_, _ int) int { return size })
}

// ChainSegment is the segment a multi-leader Bcast of n bytes cuts its
// shards into.
func (c *Comm) ChainSegment(n int) int { return c.chainSegment(c.topo(), n) }

// Done reports whether the collective has completed, without the progress
// call Test makes.
func (r *CollRequest) Done() bool { return r.done.Fired() }

// Recycled reports whether the schedule the request ran is on its process's
// free list.
func (r *CollRequest) Recycled() bool { return slices.Contains(r.c.p.spare, r.sch) }

// SameSchedule reports whether two requests were compiled into one schedule.
func (r *CollRequest) SameSchedule(o *CollRequest) bool { return r.sch == o.sch }

// RoundStorage is the receive bookkeeping the communicator's engine re-arms
// every round, nil before the first round that receives and after a failure.
func (c *Comm) RoundStorage() any {
	if c.eng == nil || c.eng.rw == nil {
		return nil
	}
	return c.eng.rw
}

// Steps counts the steps of the schedule the request ran.
func (r *CollRequest) Steps() (n int) {
	for _, rd := range r.sch.rounds {
		n += len(rd.steps)
	}
	return n
}

// SpareSchedules counts the schedules on the process's free list and what
// they still hold over all their storage: steps that name a buffer, leases
// and completion closures.
func (p *Process) SpareSchedules() (spare, pins int) {
	for _, sch := range p.spare {
		if sch.fin != nil {
			pins++
		}
		for _, l := range sch.leased[:cap(sch.leased)] {
			if l != nil {
				pins++
			}
		}
		for _, rd := range sch.rounds[:cap(sch.rounds)] {
			for _, st := range rd.steps[:cap(rd.steps)] {
				if st.buf != nil || st.src != nil {
					pins++
				}
			}
		}
	}
	return len(p.spare), pins
}

// Step is one transfer of a hand-written schedule: a receive from Peer into
// Buf, or a send of Buf to Peer, plain or on the round's second lane.
type Step struct {
	Recv, Aside bool
	Peer        int
	Buf         []byte
}

// StartRounds submits the schedule that has the given rounds, after leasing
// staged blocks of staging, as an Icoll would one it had compiled: the
// executor's own test bench.
func (c *Comm) StartRounds(name string, staged int, rounds [][]Step) *CollRequest {
	b := c.p.newSched(name)
	for i := 0; i < staged; i++ {
		b.stage(1 << 10)
	}
	for _, rd := range rounds {
		for _, st := range rd {
			switch {
			case st.Recv:
				b.recv(st.Peer, st.Buf)
			case st.Aside:
				b.sendAside(st.Peer, st.Buf)
			default:
				b.send(st.Peer, st.Buf)
			}
		}
		b.endRound()
	}
	req, _ := c.submit(b.build(nil), false)
	return req
}

// Leases compiles the named form ("flat", "2level-multi", ...) of the named
// operation ("Allgather", "Allreduce", ...) on these buffers without running
// it and returns how many staging buffers the schedule leased, sent home
// again. A reduction compiles with MPI_MAX.
func (c *Comm) Leases(op, form string, send, recv []byte, count int, dt Datatype) int {
	var f *collForm
	for k := range collKinds {
		for a := range collAlgos {
			if collKinds[k].name == op && collAlgos[a].name == form {
				f = formOf(collKind(k), collAlgo(a))
			}
		}
	}
	b := c.p.newSched(f.name)
	f.compile(c, b, c.topo(), collArgs{send: send, recv: recv, count: count, dt: dt, op: OpMax})
	for _, buf := range b.sch.leased {
		buf.Release()
	}
	return len(b.sch.leased)
}

// TuneCandidates names, per operation, the algorithms MPI_Init's sweep times
// on this communicator, in probe order ("" for none).
func (c *Comm) TuneCandidates() map[string]string {
	out := make(map[string]string)
	for k, kd := range collKinds {
		var names []string
		for _, a := range c.tuneCandidates(collKind(k)) {
			names = append(names, collAlgos[a].name)
		}
		out[kd.name] = strings.Join(names, ", ")
	}
	return out
}

// InstallTuneTable installs encoded (kind, bound, algo) triples as the
// autotuner's broadcast installs them.
func (p *Process) InstallTuneTable(enc []int64) error { return p.installTuneTable(enc) }

// TuneRow is one bracket crossoverRows placed: its upper bound and the index
// of the candidate it selects.
type TuneRow struct{ MaxBytes, Cand int }

// CrossoverRows brackets readings ([size][candidate]) as the autotuner does,
// candidate j standing for algorithm j, and returns the brackets with the
// candidate a table of them looks up for n bytes.
func CrossoverRows(sizes []int, readings [][]vtime.Duration) ([]TuneRow, func(n int) int) {
	cands := make([]collAlgo, len(readings[0]))
	for j := range cands {
		cands[j] = collAlgo(j)
	}
	rows := crossoverRows(sizes, cands, readings)
	out := make([]TuneRow, len(rows))
	for i, r := range rows {
		out[i] = TuneRow{r.maxBytes, int(r.algo)}
	}
	tt := &tuneTable{rows: map[collKind][]tuneRow{kindBcast: rows}}
	return out, func(n int) int {
		a, _ := tt.lookup(kindBcast, n)
		return int(a)
	}
}

// Context returns the communicator's point-to-point context id.
func (c *Comm) Context() int { return c.ctx }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// Pack serializes count elements of dt from buf into a contiguous byte
// slice (MPI_Pack), charging the local memcpy.
func (c *Comm) Pack(buf []byte, count int, dt Datatype) []byte {
	out := PackBuf(buf, count, dt)
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(out)))
	}
	return out
}

// Unpack deserializes contiguous bytes into count elements of dt inside
// buf (MPI_Unpack).
func (c *Comm) Unpack(packed []byte, buf []byte, count int, dt Datatype) {
	if !IsContiguous(dt) {
		c.p.M.Charge(c.p.memTime(len(packed)))
	}
	UnpackBuf(buf, count, dt, packed)
}

// Test polls for completion without blocking (MPI_Test).
func (r *Request) Test() (done bool, st *Status, err error) {
	if r.finished {
		return true, r.status, r.err
	}
	ev := r.rr.Done
	if r.sr != nil {
		ev = r.sr.Done
	}
	if !ev.Fired() {
		return false, nil, nil
	}
	st, err = r.Wait()
	return true, st, err
}
