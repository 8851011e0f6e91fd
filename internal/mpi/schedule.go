// Collective schedules: the intermediate representation every collective
// algorithm (flat or hierarchical) compiles into, and the executor that
// the per-communicator progress engine (nbc.go) drives.
//
// A schedule is a DAG of rounds linearized in dependency order. Each round
// holds steps of five kinds — send, recv, fold (a receive whose bytes the
// round reduces into a buffer), local reduce, local copy — with the
// invariant that a round's transfers are independent of each other: the
// executor pre-posts every receive of the round, streams out the sends,
// waits for the receives, then runs the round's local steps, folds
// included, in listed order. Data dependencies between rounds are
// expressed purely through shared staging buffers: a send step in round
// k+1 that names a buffer filled by a receive in round k automatically
// forwards the received bytes, which is how store-and-forward trees and
// pipelined segments are written as plain data.
//
// A send step may ride the round's second lane (schedBuilder.sendAside).
// EndPacking keeps a sender until the wire has taken its bytes, so one thread
// issuing a round's sends one after another leaves a rank's fast fabric idle
// while its bridge drains; the sends of lane 1 are injected by a second
// Marcel thread of the same process while lane 0 runs inline — the paper's
// one thread per network, for the length of a round. The round still
// pre-posts every receive first and ends when both lanes and all receives
// are done; CPU charges of the two threads contend through marcel.Charge
// like any two threads of a process; an error on either lane ends the
// schedule. The thread is resident, one per communicator, started by the
// first laned round (collEngine.lane). What a compiler owes the lane is in
// doc.go's schedule model: a lane-1 send is eager or its receive is posted
// in the peer's same round, and no directed pair has sends on both lanes of
// one round. A round with no lane-1 step executes exactly as it did before
// there was one.
//
// Staging comes from the rank's buffer list with one of two lifetimes. A
// buffer that a later round or the completion closure reads is leased at
// compile time (schedBuilder.stage), lives until the completion closure has
// returned, and goes home in execSchedule. A fold's buffer is leased by the
// engine when its message matches (adi.RecvReq.Lease) and goes home once
// the round's local steps have read it. A schedule that ends in error keeps
// both (see the package comment).
//
// Compiling an algorithm therefore fixes, at submit time, every message
// (peer, payload, order) and every CPU charge the operation will incur;
// executing it needs no algorithm-specific code at all. This is the
// libNBC/MPI-3 nonblocking-collectives design: new algorithms (two-level
// Alltoall, ring Allreduce, autotuner sweeps) are new compilers producing
// the same IR, not new execution paths.
package mpi

import (
	"fmt"
	"strings"

	"mpichmad/internal/adi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// stepKind discriminates schedule steps.
type stepKind int

const (
	stepSend   stepKind = iota // transmit buf to peer
	stepRecv                   // land a message from peer into buf
	stepFold                   // buf = op(buf, a message from peer), leased from its match to the round's end
	stepReduce                 // dst = op(dst, src), count elements of dt
	stepCopy                   // dst = src, charged as a local memcpy
)

// step is one schedule operation. Transfers use peer (comm rank) and buf —
// a send also lane, 1 for the round's second lane; local steps write buf
// from src (reduce and fold additionally count/dt/op).
type step struct {
	kind stepKind
	lane uint8
	peer int
	buf  []byte

	src   []byte
	count int
	dt    Datatype
	op    Op
}

// round is a set of steps whose transfers may be in flight concurrently.
// Multi-leader compilers annotate rounds with the shard they carry:
// leader1 is 1 + the co-leader (shard) index — zero means untagged — and
// gw names the gateway network that lane crosses, so trace spans show the
// parallel gateway lanes side by side.
type round struct {
	steps   []step
	laned   bool // some sends are marked for the second lane and some not
	leader1 int16
	gw      string
}

// schedule is a compiled collective operation, and the builder that
// compiles it (newSched).
type schedule struct {
	b    schedBuilder
	name string
	// doneEvt and roundEvt name the request's completion event and a
	// round's receives-landed event (deadlock dumps).
	doneEvt, roundEvt string
	rounds            []round
	// fin runs after the last round: unpacking staging into the user's
	// receive buffer plus the associated CPU charge. May be nil.
	fin func()
	// leased is the staging the compiler took (schedBuilder.stage), sent
	// home by execSchedule once fin has returned.
	leased []*netsim.Buf
}

// schedBuilder accumulates rounds. The zero value (via newSched) starts
// with an open empty round; endRound closes it and opens the next. The
// phase builders in phases.go extend it with the recurring patterns. bufs
// is the rank's buffer list (its session's), where the schedule's staging
// comes from.
type schedBuilder struct {
	sch  *schedule
	cur  round
	bufs *netsim.BufList
}

// newSched starts a schedule in one the process recycled, when it has one:
// its builder, its rounds' and steps' storage (add) and, for the same name,
// its event names are reused.
func (p *Process) newSched(name string) *schedBuilder {
	var sch *schedule
	if n := len(p.spare); n > 0 {
		sch, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		sch = &schedule{}
	}
	if sch.name != name {
		sch.name, sch.doneEvt, sch.roundEvt = name, "mpi.icoll."+name, "mpi.sched."+name
	}
	sch.b = schedBuilder{sch: sch, bufs: p.Eng.Bufs}
	return &sch.b
}

// recycle keeps a schedule that ran to completion for the next compile,
// cleared first — steps, leases, completion closure — so that it pins no
// user buffer. A schedule that failed is never recycled: it keeps its steps
// and its staging, where a receive it pre-posted may still land.
func (p *Process) recycle(sch *schedule) {
	for _, rd := range sch.rounds {
		clear(rd.steps)
	}
	clear(sch.leased)
	sch.rounds, sch.leased, sch.fin = sch.rounds[:0], sch.leased[:0], nil
	p.spare = append(p.spare, sch)
}

// stage leases n bytes of staging for the life of the schedule. The bytes
// are whatever their last holder left: a compiler fills what it reads.
func (b *schedBuilder) stage(n int) []byte {
	buf := b.bufs.Get(n)
	b.sch.leased = append(b.sch.leased, buf)
	return buf.B
}

// lazily is stage for a buffer only some ranks need: leased by the first step
// that names it.
func (b *schedBuilder) lazily(buf *[]byte, n int) []byte {
	if *buf == nil {
		*buf = b.stage(n)
	}
	return *buf
}

// landing returns the n bytes a schedule assembles a packed result in, for
// a completion closure (unpackVector) to unpack into user.
// For a dense datatype the packed form and the user's layout are the same
// bytes, so the result is assembled in user itself — the transport lands
// it there and the closure's unpack finds it in place (UnpackBuf) — and
// nothing is leased; otherwise, or when user is too short to be a
// significant receive buffer (nil off a Reduce's root), it is staging. A
// compiler that still reads the send buffer after the first byte lands
// must not pass a user buffer that is the send buffer (collArgs.recvApart).
func (b *schedBuilder) landing(user []byte, n int, dt Datatype) []byte {
	if IsContiguous(dt) && len(user) >= n {
		return user[:n:n]
	}
	return b.stage(n)
}

// packed is landing's twin for a buffer a schedule sends from: count
// elements of dt from user, packed — user itself for a dense datatype, else
// staging the compiler packs them into.
func (b *schedBuilder) packed(user []byte, count int, dt Datatype) []byte {
	if IsContiguous(dt) {
		return user[:count*dt.size]
	}
	buf := b.stage(count * dt.size)
	dt.move(user, buf, count, true)
	return buf
}

// endRound seals the open round (dropped when empty) and opens a new one
// under the same annotation. The second lane exists beside a first: in a
// round that sends nothing on lane 0 the sends marked for lane 1 are plain
// sends, in the order listed.
func (b *schedBuilder) endRound() {
	if len(b.cur.steps) > 0 {
		var on [2]bool
		for _, st := range b.cur.steps {
			on[st.lane] = on[st.lane] || st.kind == stepSend
		}
		if b.cur.laned = on[0] && on[1]; !b.cur.laned {
			for i := range b.cur.steps {
				b.cur.steps[i].lane = 0
			}
		}
		b.sch.rounds = append(b.sch.rounds, b.cur)
		b.cur = round{leader1: b.cur.leader1, gw: b.cur.gw}
	}
}

// add appends a step to the open round. A round's steps go where a recycled
// schedule kept the steps of the round of the same index, else they are
// sized after the round before: the rounds of a pipeline are alike, and one
// that grew step by step cost twice its size.
func (b *schedBuilder) add(st step) {
	if rs, n := b.sch.rounds, len(b.sch.rounds); b.cur.steps == nil && n < cap(rs) {
		b.cur.steps = rs[:n+1][n].steps[:0]
	}
	if n := len(b.sch.rounds); b.cur.steps == nil && n > 0 {
		b.cur.steps = make([]step, 0, len(b.sch.rounds[n-1].steps))
	}
	b.cur.steps = append(b.cur.steps, st)
}

func (b *schedBuilder) send(to int, buf []byte) {
	b.add(step{kind: stepSend, peer: to, buf: buf})
}

// sendAside is send on the round's second lane: injected beside the round's
// plain sends, by the communicator's lane thread.
func (b *schedBuilder) sendAside(to int, buf []byte) {
	b.add(step{kind: stepSend, lane: 1, peer: to, buf: buf})
}

func (b *schedBuilder) recv(from int, buf []byte) {
	b.add(step{kind: stepRecv, peer: from, buf: buf})
}

// fold lands a message from peer and reduces it into dst (count elements of
// dt) among the round's local steps, in listed order: for a received
// partial that nothing but this one reduce reads, which then holds a buffer
// only from its match to the end of its round.
func (b *schedBuilder) fold(from int, dst []byte, count int, dt Datatype, op Op) {
	b.add(step{kind: stepFold, peer: from, buf: dst, count: count, dt: dt, op: op})
}

func (b *schedBuilder) reduce(dst, src []byte, count int, dt Datatype, op Op) {
	b.add(step{kind: stepReduce, buf: dst, src: src, count: count, dt: dt, op: op})
}

func (b *schedBuilder) copyStep(dst, src []byte) {
	b.add(step{kind: stepCopy, buf: dst, src: src})
}

// onShard marks the open round and every later one, until the next call,
// with the co-leader (shard) index and the gateway network their transfers
// ride (multi-leader trace annotation).
func (b *schedBuilder) onShard(leaderIdx int, gw string) {
	b.cur.leader1, b.cur.gw = int16(leaderIdx+1), gw
}

// build seals the schedule with its completion closure.
func (b *schedBuilder) build(fin func()) *schedule {
	b.endRound()
	b.sch.fin = fin
	return b.sch
}

// lands reports whether the step receives a message: a recv or a fold.
func (st *step) lands() bool { return st.kind == stepRecv || st.kind == stepFold }

// local reports whether the schedule moves no bytes over the network
// (size-1 communicators, self-rooted trivial cases); such a schedule runs
// on its caller, Icoll or not, unless earlier work is pending (submit).
func (sch *schedule) local() bool {
	for _, rd := range sch.rounds {
		for _, st := range rd.steps {
			if st.kind == stepSend || st.lands() {
				return false
			}
		}
	}
	return true
}

// execSchedule runs a compiled schedule to completion on the calling
// thread: the engine thread, or the caller of a blocking collective. All
// messages travel on the communicator's collective context under the
// schedule's unique tag; FIFO matching per (source, tag) pairs same-peer
// transfers of different rounds correctly because both sides order them
// identically.
//
// Receives are pre-posted with an adi completion hook counting down to a
// per-round event, so a round with many receives blocks exactly once
// however the completions interleave with the round's outbound sends.
func (c *Comm) execSchedule(sch *schedule, tag int) error {
	tr := c.p.tracer
	var op0 vtime.Time
	if tr != nil {
		op0 = c.p.M.S.Now()
	}
	err := c.execRounds(sch, tag, tr)
	if tr != nil {
		tr.Span(c.p.traceTrack, trace.KSched, "sched."+sch.name, op0, trace.Args{
			Seq: uint32(tag), Val: int64(len(sch.rounds)),
		})
	}
	// After an error the staging stays out, for the GC to take with the
	// schedule, and so does the engine's round storage with the failed
	// round's leases: a receive the round pre-posted may still land in them.
	if err == nil {
		for _, buf := range sch.leased {
			buf.Release()
		}
		c.p.recycle(sch)
	} else if c.eng != nil {
		c.eng.rw = nil
	}
	return err
}

func (c *Comm) execRounds(sch *schedule, tag int, tr *trace.Tracer) error {
	for ri := range sch.rounds {
		rd := &sch.rounds[ri]
		var rd0 vtime.Time
		if tr != nil {
			rd0 = c.p.M.S.Now()
		}

		var rw *roundWait
		for _, st := range rd.steps {
			if st.lands() {
				if rw == nil {
					rw = c.eng.arm(c.p.M.S, sch.roundEvt)
				}
				rr := adi.RecvReq{Src: c.group[st.peer], Tag: tag, Context: c.collCtx(), Buf: st.buf, OnComplete: rw.landed}
				if st.kind == stepFold {
					rr.Buf, rr.Lease = nil, len(st.buf)
				}
				rw.rrs = append(rw.rrs, rr)
			}
		}
		if rw != nil {
			// Posted by address, so only once the slice has stopped growing.
			rw.pending = len(rw.rrs)
			for i := range rw.rrs {
				c.p.Eng.PostRecv(&rw.rrs[i])
			}
		}

		if rd.laned {
			c.laneStart(rd, tag)
		}
		err := c.sendLane(rd, 0, tag)
		if rd.laned {
			if c.eng.laneDone.Acquire(); err == nil {
				err = c.eng.laneErr
			}
		}
		if err != nil {
			return err
		}

		if rw != nil {
			rw.done.Wait()
			for i := range rw.rrs {
				if rw.rrs[i].Err != nil {
					return rw.rrs[i].Err
				}
			}
		}

		// A fold reads the request it was posted as, the k-th receive listed.
		k := 0
		for _, st := range rd.steps {
			src := st.src
			if st.lands() {
				src, k = rw.rrs[k].Buf, k+1
			}
			switch st.kind {
			case stepFold, stepReduce:
				if err := st.op.Apply(st.buf, src, st.count, st.dt); err != nil {
					return err
				}
			case stepCopy:
				c.p.M.Charge(c.p.memTime(len(st.src)))
				netsim.Copy(st.buf, st.src)
			case stepSend, stepRecv:
				// Network steps were issued at round start; nothing to
				// apply locally.
			}
		}
		if rw != nil {
			for i := range rw.rrs {
				rw.rrs[i].ReleaseLease()
			}
			clear(rw.rrs) // the engine keeps the storage, not the buffers
		}
		if tr != nil {
			tr.Span(c.p.traceTrack, trace.KSched, "sched.round", rd0, trace.Args{
				Seq: uint32(tag), Val: int64(ri),
				Bytes: roundBytes(rd)[0], Class: roundPeers(c, rd),
				Leader: rd.leader1, GW: rd.gw,
			})
		}
	}
	if sch.fin != nil {
		sch.fin()
	}
	return nil
}

// roundWait is a round's receive bookkeeping: the requests it pre-posts and
// the event (named sch.roundEvt, for deadlock dumps) their completions count
// down to. The engine keeps one that every round re-arms.
type roundWait struct {
	rrs     []adi.RecvReq
	pending int
	done    *vtime.Event
	landed  func()
}

// arm re-arms the engine's round bookkeeping under the round event's name,
// made on first use and again after a failed schedule dropped it.
func (e *collEngine) arm(s *vtime.Scheduler, name string) *roundWait {
	rw := e.rw
	if rw == nil {
		rw = &roundWait{done: vtime.NewEvent(s, name)}
		rw.landed = func() {
			if rw.pending--; rw.pending == 0 {
				rw.done.Fire()
			}
		}
		e.rw = rw
	}
	rw.done.Rearm(name)
	rw.rrs = rw.rrs[:0]
	return rw
}

// sendLane injects the round's sends of one lane, in listed order, on the
// calling thread; the first error ends it.
func (c *Comm) sendLane(rd *round, lane uint8, tag int) error {
	for i := range rd.steps {
		if st := &rd.steps[i]; st.kind == stepSend && st.lane == lane {
			if err := c.sendRaw(st.buf, st.peer, tag, c.collCtx()); err != nil {
				return err
			}
		}
	}
	return nil
}

// roundBytes totals the payload a round sends on each lane (trace annotation).
func roundBytes(rd *round) (n [2]int64) {
	for _, st := range rd.steps {
		if st.kind == stepSend {
			n[st.lane] += int64(len(st.buf))
		}
	}
	return n
}

// roundPeers summarizes who a round talks to, in world ranks, for the
// round's trace span: "s5,r0" = one send to world rank 5, one receive
// from world rank 0 — the leaders and neighbours each round engages; a
// laned round ends in "/1:" and the bytes lane 1 carried, beside the span's
// own count for lane 0. Bounded at 6 entries; only built when tracing is on.
func roundPeers(c *Comm, rd *round) string {
	var parts []string
	extra := 0
	for _, st := range rd.steps {
		if st.kind != stepSend && !st.lands() {
			continue
		}
		if len(parts) >= 6 {
			extra++
			continue
		}
		dir := "s"
		if st.lands() {
			dir = "r"
		}
		parts = append(parts, fmt.Sprintf("%s%d", dir, c.group[st.peer]))
	}
	if extra > 0 {
		parts = append(parts, fmt.Sprintf("+%d", extra))
	}
	if n := roundBytes(rd)[1]; n > 0 {
		return fmt.Sprintf("%s/1:%d", strings.Join(parts, ","), n)
	}
	return strings.Join(parts, ",")
}
