// Nonblocking collectives (the Icoll API) and the per-communicator
// progress engine that executes compiled schedules.
//
// Every collective compiles its algorithm into a schedule (schedule.go)
// and takes the next tag in the communicator's collective sequence; submit
// then decides where it runs. A blocking collective runs on the thread that
// called it, as every blocking operation does in the paper, whose only
// threads beside the application's are one polling thread per network and
// a temporary one per nonblocking send (§4.2.3) — unless the engine still
// has work queued or running, in which case it queues behind that work. An
// Icoll always queues, and the engine runs the queue in order on a
// dedicated Marcel thread. That thread makes progress while the application
// thread blocks or yields, and while it computes: a charge of the engine
// queued behind the application's marcel.Compute preempts it within a
// marcel.Quantum — the paper's decoupling of communication progress from
// the application thread, applied to collectives. The application gets a
// CollRequest and overlaps computation until Wait/Test.
//
// The engine thread is resident, like the paper's polling threads: the
// communicator's first collective that queues starts it, as a daemon, and
// it never exits — between jobs it is parked on the engine's queue and the
// next queued collective wakes it. A program of blocking collectives only
// starts none. As a daemon the thread does not keep the run alive, so an
// Icoll that nobody waits for does not hold Scheduler.Run once its rank's
// main has returned. On the world it still completes — MPI_Finalize's
// barrier queues behind it on the same in-order engine; on any other
// communicator it ends wherever the run ends.
//
// MPI requires every member to issue collectives on a communicator in the
// same order, so the per-communicator sequence numbers agree across ranks
// and in-order execution can never deadlock (it is equivalent to the
// blocking call sequence). The unique per-operation tag keeps messages of
// operation k+1 — possibly already arriving from a faster peer — from
// matching operation k's receives.
package mpi

import (
	"cmp"
	"fmt"

	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// tagNBCBase is the first schedule tag on the collective context; each
// scheduled collective takes the next one in the communicator's sequence.
const tagNBCBase = 1 << 10

// CollRequest is an outstanding nonblocking collective (MPI_Request for
// the MPI-3 I-collectives).
type CollRequest struct {
	c    *Comm
	sch  *schedule
	tag  int
	done *vtime.Event
	err  error
}

// Wait blocks until the collective completes (MPI_Wait).
func (r *CollRequest) Wait() error {
	r.done.Wait()
	return r.err
}

// Test reports completion without blocking indefinitely (MPI_Test). When
// the operation is still in flight the caller sleeps 1 µs of virtual time:
// a Test poll loop lets the engine thread's charges in between its
// iterations instead of livelocking the scheduler. It is not needed for
// progress: the engine's charges preempt a Compute of the caller anyway.
//
//madlint:ignore deadexport bench/ uses it
func (r *CollRequest) Test() (bool, error) {
	if !r.done.Fired() {
		r.c.p.M.Sleep(vtime.Microsecond)
	}
	return r.done.Fired(), r.err // err is set when done fires, not before
}

// collEngine is a communicator's collective progress state: the sequence
// allocator, the turn the schedule that runs holds wherever it runs, and —
// from the first collective that queues — the queue its thread takes from;
// from the first round that has sends on a second lane, the mailbox and the
// return semaphore of the thread that injects those (laneStart).
type collEngine struct {
	seq  int
	turn *vtime.Sem                 // one permit: at most one schedule runs at a time
	jobs *vtime.Queue[*CollRequest] // nil until a collective queues
	rw   *roundWait                 // every round's receive bookkeeping (execRounds)

	lane     *vtime.Queue[*round]
	laneDone *vtime.Sem
	laneTag  int
	laneErr  error
}

// submit starts a compiled schedule under the next tag of the sequence; it
// is the one place that decides where a collective runs. When the engine
// has nothing queued or running, a schedule runs on the calling thread if
// that thread waits for it anyway (wait) or if it moves no bytes, so that
// nothing can keep it. Otherwise it queues behind the pending work, in
// submission order — MPI's per-communicator collective order — and the
// first one that does starts the engine thread. A caller that waits gets
// no request: a queued blocking collective waits on one that nobody else
// can hold.
func (c *Comm) submit(sch *schedule, wait bool) (*CollRequest, error) {
	if c.eng == nil {
		c.eng = &collEngine{turn: vtime.NewSem(c.p.M.S, "mpi.nbc.turn", 1)}
	}
	eng := c.eng
	tag := tagNBCBase + eng.seq
	eng.seq++
	if (wait || sch.local()) && (eng.jobs == nil || eng.jobs.Len() == 0) && eng.turn.TryAcquire() {
		c.traceSubmit(sch, tag, "caller", 0)
		err := c.execSchedule(sch, tag)
		eng.turn.Release()
		if wait {
			return nil, err
		}
		req := &CollRequest{c: c, sch: sch, err: err, done: vtime.NewEvent(c.p.M.S, sch.doneEvt)}
		req.done.Fire()
		return req, nil
	}
	if eng.jobs == nil {
		eng.jobs = vtime.NewQueue[*CollRequest](c.p.M.S, "mpi.nbc")
		c.p.M.SpawnDaemon("nbc.progress", c.progress)
	}
	req := &CollRequest{c: c, sch: sch, tag: tag, done: vtime.NewEvent(c.p.M.S, sch.doneEvt)}
	eng.jobs.Push(req)
	c.traceSubmit(sch, tag, "queued", eng.jobs.Len())
	if wait {
		return nil, req.Wait()
	}
	return req, nil
}

// traceSubmit records a collective's start: where it runs — on its caller
// or queued for the engine thread — and how many schedules are queued.
func (c *Comm) traceSubmit(sch *schedule, tag int, where string, depth int) {
	if tr := c.p.tracer; tr != nil {
		tr.Instant(c.p.traceTrack, trace.KSched, "sched.submit", trace.Args{
			Seq: uint32(tag), Class: where + ":" + sch.name, Val: int64(depth),
		})
	}
}

// progress is the engine thread: it executes queued schedules in submission
// order, each once it holds the turn — a blocking collective another
// thread of the rank runs on itself holds it meanwhile — firing each
// request's completion event, and parks when there is none.
func (c *Comm) progress() {
	for {
		req := c.eng.jobs.Pop()
		c.eng.turn.Acquire()
		req.err = c.execSchedule(req.sch, req.tag)
		c.eng.turn.Release()
		req.done.Fire()
	}
}

// laneStart hands the round's lane-1 sends to the communicator's lane
// thread, a resident daemon like the engine thread, started by the first
// round that needs it — whether that round runs on the engine thread or on
// a blocking collective's caller: one thread per laned round would cost the
// host a coroutine and a stack each. Between rounds it is parked on its
// mailbox. The round's thread collects it with laneDone.Acquire and reads
// laneErr.
func (c *Comm) laneStart(rd *round, tag int) {
	if c.eng.lane == nil {
		c.eng.lane = vtime.NewQueue[*round](c.p.M.S, "mpi.nbc.lane")
		c.eng.laneDone = vtime.NewSem(c.p.M.S, "mpi.nbc.lane.done", 0)
		c.p.M.SpawnDaemon("nbc.lane", func() {
			for {
				rd := c.eng.lane.Pop()
				t0 := c.p.M.S.Now()
				c.eng.laneErr = c.sendLane(rd, 1, c.eng.laneTag)
				if tr := c.p.tracer; tr != nil {
					tr.Span(c.p.traceTrack, trace.KSched, "sched.lane", t0, trace.Args{
						Seq: uint32(c.eng.laneTag), Bytes: roundBytes(rd)[1], Leader: rd.leader1, GW: rd.gw,
					})
				}
				c.eng.laneDone.Release()
			}
		})
	}
	c.eng.laneTag = tag
	c.eng.lane.Push(rd)
}

// startColl is the shared entry of every collective, blocking (wait) or
// not: the call's own validity checks, in order, then the communicator's
// and the root's; then the tuning table names a preference (chooseAlgo),
// sanitizeAlgo degrades it to a form this communicator can run, that
// collForms row compiles the schedule and submit starts it. nBytes is the
// operation's dispatch metric — the payload size the tuning brackets are
// keyed by.
func (c *Comm) startColl(op string, kind collKind, nBytes int, wait bool, a collArgs, checks ...error) (*CollRequest, error) {
	if err := cmp.Or(cmp.Or(checks...), c.checkLive(op)); err != nil {
		return nil, err
	}
	if err := c.checkPeer(op, a.root); collKinds[kind].rooted && err != nil {
		return nil, err
	}
	f := formOf(kind, c.sanitizeAlgo(kind, c.chooseAlgo(kind, nBytes)))
	b := c.p.newSched(f.name)
	return c.submit(b.build(f.compile(c, b, c.topo(), a)), wait)
}

// checkBuf validates a user buffer against the element count before
// compiling, so misuse fails synchronously at the call site instead of
// panicking later on the engine thread.
func (c *Comm) checkBuf(op, which string, buf []byte, elems int, dt Datatype) error {
	if elems < 0 {
		return fmt.Errorf("mpi: %s: negative count %d", op, elems)
	}
	if need := elems * dt.Extent(); len(buf) < need {
		return fmt.Errorf("mpi: %s: %s buffer is %d bytes, need %d", op, which, len(buf), need)
	}
	return nil
}

// Each Icoll below starts the collective its blocking twin (collectives.go)
// runs; both go through the lower-case form, which validates the call and
// reports errors under the Icoll's name.

// Ibarrier starts a nonblocking barrier (MPI_Ibarrier).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Ibarrier() (*CollRequest, error) { return c.barrier(false) }

func (c *Comm) barrier(wait bool) (*CollRequest, error) {
	return c.startColl("Ibarrier", kindBarrier, 0, wait, collArgs{})
}

// Ibcast starts a nonblocking broadcast (MPI_Ibcast). The root's buf must
// stay untouched until completion; other ranks' buf is filled at Wait. The
// tuning table picks the two-level tree (pipelined in segments for large
// payloads) or the multi-leader relay chains on multi-cluster topologies,
// the binomial tree otherwise.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Ibcast(buf []byte, count int, dt Datatype, root int) (*CollRequest, error) {
	return c.bcast(buf, count, dt, root, false)
}

func (c *Comm) bcast(buf []byte, count int, dt Datatype, root int, wait bool) (*CollRequest, error) {
	return c.startColl("Ibcast", kindBcast, count*dt.Size(), wait,
		collArgs{send: buf, recv: buf, count: count, dt: dt, root: root},
		c.checkBuf("Ibcast", "data", buf, count, dt))
}

// Ireduce starts a nonblocking reduction to root (MPI_Ireduce).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Ireduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) (*CollRequest, error) {
	return c.reduce(sendBuf, recvBuf, count, dt, op, root, false)
}

func (c *Comm) reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int, wait bool) (*CollRequest, error) {
	recv := c.checkBuf("Ireduce", "recv", recvBuf, count, dt)
	if c.myRank != root {
		// Significant at the root only. The compilers accumulate in the
		// receive buffer when they can (schedBuilder.landing): elsewhere
		// they get none, so whatever the caller passed is never written.
		recvBuf, recv = nil, nil
	}
	return c.startColl("Ireduce", kindReduce, count*dt.Size(), wait,
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt, op: op, root: root},
		c.checkBuf("Ireduce", "send", sendBuf, count, dt), recv)
}

// Iallreduce starts a nonblocking all-reduce (MPI_Iallreduce) compiled into
// one schedule: a reduce to rank 0 chained with a broadcast, a two-level
// form whose cluster leaders exchange their partials, a ring, or the
// multi-leader sharded form.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (*CollRequest, error) {
	return c.allreduce(sendBuf, recvBuf, count, dt, op, false)
}

func (c *Comm) allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, wait bool) (*CollRequest, error) {
	return c.startColl("Iallreduce", kindAllreduce, count*dt.Size(), wait,
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt, op: op},
		c.checkBuf("Iallreduce", "send", sendBuf, count, dt), c.checkBuf("Iallreduce", "recv", recvBuf, count, dt))
}

// IreduceScatter starts a nonblocking reduce-scatter with equal counts
// (MPI_Ireduce_scatter_block): the count-per-rank blocks of every member's
// sendBuf are combined with op and block r lands in rank r's recvBuf. Ring
// schedules throughout — the flat bandwidth-optimal ring, or the two-level
// variant (intra-cluster ring + leader bundle exchange) on multi-cluster
// topologies.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) IreduceScatter(sendBuf, recvBuf []byte, countPerRank int, dt Datatype, op Op) (*CollRequest, error) {
	return c.reduceScatter(sendBuf, recvBuf, countPerRank, dt, op, false)
}

func (c *Comm) reduceScatter(sendBuf, recvBuf []byte, countPerRank int, dt Datatype, op Op, wait bool) (*CollRequest, error) {
	return c.startColl("IreduceScatter", kindReduceScatter, c.Size()*countPerRank*dt.Size(), wait,
		collArgs{send: sendBuf, recv: recvBuf, count: countPerRank, dt: dt, op: op},
		c.checkBuf("IreduceScatter", "send", sendBuf, c.Size()*countPerRank, dt),
		c.checkBuf("IreduceScatter", "recv", recvBuf, countPerRank, dt))
}

// Igather starts a nonblocking gather to root (MPI_Igather).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Igather(sendBuf, recvBuf []byte, count int, dt Datatype, root int) (*CollRequest, error) {
	return c.gather(sendBuf, recvBuf, count, dt, root, false)
}

func (c *Comm) gather(sendBuf, recvBuf []byte, count int, dt Datatype, root int, wait bool) (*CollRequest, error) {
	recv := c.checkBuf("Igather", "recv", recvBuf, c.Size()*count, dt)
	if c.myRank != root {
		recv = nil // significant at the root only
	}
	return c.startColl("Igather", kindGather, count*dt.Size(), wait,
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt, root: root},
		c.checkBuf("Igather", "send", sendBuf, count, dt), recv)
}

// Iallgather starts a nonblocking all-gather (MPI_Iallgather).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Iallgather(sendBuf, recvBuf []byte, count int, dt Datatype) (*CollRequest, error) {
	return c.allgather(sendBuf, recvBuf, count, dt, false)
}

func (c *Comm) allgather(sendBuf, recvBuf []byte, count int, dt Datatype, wait bool) (*CollRequest, error) {
	return c.startColl("Iallgather", kindAllgather, count*dt.Size(), wait,
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt},
		c.checkBuf("Iallgather", "send", sendBuf, count, dt), c.checkBuf("Iallgather", "recv", recvBuf, c.Size()*count, dt))
}

// Ialltoall starts a nonblocking all-to-all (MPI_Ialltoall). On
// multi-cluster topologies the two-level schedule bundles traffic through
// cluster leaders so each backbone link is crossed O(clusters) times
// instead of O(n) (see alltoallBundles).
func (c *Comm) Ialltoall(sendBuf, recvBuf []byte, count int, dt Datatype) (*CollRequest, error) {
	return c.alltoall(sendBuf, recvBuf, count, dt, false)
}

func (c *Comm) alltoall(sendBuf, recvBuf []byte, count int, dt Datatype, wait bool) (*CollRequest, error) {
	want := c.Size() * count * dt.Extent()
	if len(sendBuf) < want || len(recvBuf) < want {
		return nil, fmt.Errorf("mpi: Ialltoall: buffers need %d bytes (send %d, recv %d)",
			want, len(sendBuf), len(recvBuf))
	}
	return c.startColl("Ialltoall", kindAlltoall, c.Size()*count*dt.Size(), wait,
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt})
}
