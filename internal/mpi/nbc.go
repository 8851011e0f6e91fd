// Nonblocking collectives (the Icoll API) and the per-communicator
// progress engine that executes compiled schedules.
//
// Each Icoll call compiles its algorithm into a schedule (schedule.go),
// assigns it the next tag in the communicator's collective sequence and
// hands it to the engine, which runs submitted schedules in order on a
// dedicated Marcel thread. The engine makes progress while the application
// thread blocks or yields, and while it computes: a charge of the engine
// queued behind the application's marcel.Compute preempts it within a
// marcel.Quantum — the paper's decoupling of communication progress from
// the application thread, applied to collectives. The application gets a
// CollRequest and overlaps computation until Wait/Test.
//
// The engine thread is resident, like the paper's polling threads (§4.2.3):
// the communicator's first scheduled collective starts it, as a daemon, and
// it never exits — between jobs it is parked on the engine's queue and the
// next submit wakes it. It used to be spawned by every submit that found
// the engine idle and to exit when its queue drained; on 1024 ranks that
// was a coroutine and a stack regrown through the whole send path per
// collective call per rank. The order of events is what it was: a spawn
// and a wake both put the thread at the back of the ready queue at the
// same point of submit, a drained engine hands the CPU on through the
// scheduler's pick whether it returns or parks, and a submit that finds the
// engine busy is taken up without a hop either way. One thing differs. As
// a daemon the thread does not keep the run alive, so an Icoll that nobody
// waits for no longer holds Scheduler.Run once its rank's main has returned.
// On the world nothing changes — MPI_Finalize's barrier queues behind it
// on the same in-order engine, so it completes first; on any other
// communicator it ends wherever the run ends (it used to be waited for, or,
// if it could not finish, to turn a clean exit into a deadline error).
//
// MPI requires every member to issue collectives on a communicator in the
// same order, so the per-communicator sequence numbers agree across ranks
// and in-order execution can never deadlock (it is equivalent to the
// blocking call sequence). The unique per-operation tag keeps messages of
// operation k+1 — possibly already arriving from a faster peer — from
// matching operation k's receives.
package mpi

import (
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
	done *vtime.Event
	err  error
}

// Wait blocks until the collective completes (MPI_Wait).
func (r *CollRequest) Wait() error {
	r.done.Wait()
	return r.err
}

// newReq hands out a request of the process's free list, or a new one. A
// blocking collective's comes back once it has completed (blocking); an
// Icoll's stays with its caller.
func (p *Process) newReq(c *Comm, sch *schedule) *CollRequest {
	var req *CollRequest
	if n := len(p.reqs); n > 0 {
		req, p.reqs = p.reqs[n-1], p.reqs[:n-1]
		req.done.Rearm(sch.doneEvt)
	} else {
		req = &CollRequest{done: vtime.NewEvent(p.M.S, sch.doneEvt)}
	}
	req.c, req.sch = c, sch
	return req
}

// blocking is Wait for the request of a blocking collective, which nobody
// else holds: once complete, it goes back to the process's free list with
// its event retired, so that a stale Wait or Test panics.
func (c *Comm) blocking(req *CollRequest, err error) error {
	if err != nil {
		return err
	}
	err = req.Wait()
	*req = CollRequest{done: req.done}
	req.done.Retire()
	c.p.reqs = append(c.p.reqs, req)
	return err
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
		if !r.done.Fired() {
			return false, nil
		}
	}
	return true, r.err
}

// collEngine is a communicator's collective progress state: the sequence
// allocator and the queue of submitted schedules its thread takes from —
// and, from the first round that has sends on a second lane, the mailbox and
// the return semaphore of the thread that injects those (laneStart).
type collEngine struct {
	seq  int
	jobs *vtime.Queue[collJob]
	rw   *roundWait // every round's receive bookkeeping (execRounds)

	lane     *vtime.Queue[*round]
	laneDone *vtime.Sem
	laneTag  int
	laneErr  error
}

type collJob struct {
	req *CollRequest
	tag int
}

// submit queues a compiled schedule on the communicator's progress engine
// and returns its request. Purely local schedules (size-1 communicators)
// run inline. The first scheduled collective starts the engine thread.
func (c *Comm) submit(sch *schedule) *CollRequest {
	req := c.p.newReq(c, sch)
	if sch.local() {
		req.err = c.execSchedule(sch, 0)
		req.done.Fire()
		return req
	}
	eng := c.eng
	if eng == nil {
		eng = &collEngine{jobs: vtime.NewQueue[collJob](c.p.M.S, "mpi.nbc")}
		c.eng = eng
		c.p.M.SpawnDaemon("nbc.progress", c.progress)
	}
	tag := tagNBCBase + eng.seq
	eng.seq++
	eng.jobs.Push(collJob{req: req, tag: tag})
	if tr := c.p.tracer; tr != nil {
		tr.Instant(c.p.traceTrack, trace.KSched, "sched.submit", trace.Args{
			Seq: uint32(tag), Class: sch.name, Val: int64(eng.jobs.Len()),
		})
	}
	return req
}

// progress is the engine thread: it executes schedules in submission order,
// firing each request's completion event, and parks when there is none.
func (c *Comm) progress() {
	for {
		job := c.eng.jobs.Pop()
		job.req.err = c.execSchedule(job.req.sch, job.tag)
		job.req.done.Fire()
	}
}

// laneStart hands the round's lane-1 sends to the communicator's lane
// thread, a resident daemon like the engine thread and started like it, by
// the first round that needs it: a thread per laned round cost the host a
// coroutine and a stack each (host_s +12-14 % with two forms converted).
// Between rounds it is parked on its mailbox. The engine collects the round
// with laneDone.Acquire and reads laneErr.
func (c *Comm) laneStart(rd *round, tag int) {
	eng := c.eng
	if eng.lane == nil {
		eng.lane = vtime.NewQueue[*round](c.p.M.S, "mpi.nbc.lane")
		eng.laneDone = vtime.NewSem(c.p.M.S, "mpi.nbc.lane.done", 0)
		c.p.M.SpawnDaemon("nbc.lane", func() {
			for {
				rd := eng.lane.Pop()
				t0 := c.p.M.S.Now()
				eng.laneErr = c.sendLane(rd, 1, eng.laneTag)
				if tr := c.p.tracer; tr != nil {
					tr.Span(c.p.traceTrack, trace.KSched, "sched.lane", t0, trace.Args{
						Seq: uint32(eng.laneTag), Bytes: roundBytes(rd)[1], Leader: rd.leader1, GW: rd.gw,
					})
				}
				eng.laneDone.Release()
			}
		})
	}
	eng.laneTag = tag
	eng.lane.Push(rd)
}

// startColl is the shared Icoll entry: validity checks, then the tuning
// table names a preference (chooseAlgo), sanitizeAlgo degrades it to a
// form this communicator can run, that collForms row compiles the schedule
// and the engine takes it. nBytes is the operation's dispatch
// metric — the payload size the tuning brackets are keyed by.
func (c *Comm) startColl(op string, kind collKind, nBytes int, a collArgs) (*CollRequest, error) {
	if err := c.checkLive(op); err != nil {
		return nil, err
	}
	if collKinds[kind].rooted {
		if err := c.checkPeer(op, a.root); err != nil {
			return nil, err
		}
	}
	f := formOf(kind, c.sanitizeAlgo(kind, c.chooseAlgo(kind, nBytes)))
	b := c.p.newSched(f.name)
	return c.submit(b.build(f.compile(c, b, c.topo(), a))), nil
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

// Ibarrier starts a nonblocking barrier (MPI_Ibarrier).
func (c *Comm) Ibarrier() (*CollRequest, error) {
	return c.startColl("Ibarrier", kindBarrier, 0, collArgs{})
}

// Ibcast starts a nonblocking broadcast (MPI_Ibcast). The root's buf must
// stay untouched until completion; other ranks' buf is filled at Wait. The
// tuning table picks the two-level tree (pipelined in segments for large
// payloads) or the multi-leader relay chains on multi-cluster topologies,
// the binomial tree otherwise.
func (c *Comm) Ibcast(buf []byte, count int, dt Datatype, root int) (*CollRequest, error) {
	if err := c.checkBuf("Ibcast", "data", buf, count, dt); err != nil {
		return nil, err
	}
	return c.startColl("Ibcast", kindBcast, count*dt.Size(),
		collArgs{send: buf, recv: buf, count: count, dt: dt, root: root})
}

// Ireduce starts a nonblocking reduction to root (MPI_Ireduce).
func (c *Comm) Ireduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) (*CollRequest, error) {
	if err := c.checkBuf("Ireduce", "send", sendBuf, count, dt); err != nil {
		return nil, err
	}
	if c.myRank != root {
		// Significant at the root only. The compilers accumulate in the
		// receive buffer when they can (schedBuilder.landing): elsewhere
		// they get none, so whatever the caller passed is never written.
		recvBuf = nil
	} else if err := c.checkBuf("Ireduce", "recv", recvBuf, count, dt); err != nil {
		return nil, err
	}
	return c.startColl("Ireduce", kindReduce, count*dt.Size(),
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt, op: op, root: root})
}

// Iallreduce starts a nonblocking all-reduce (MPI_Iallreduce) compiled into
// one schedule: a reduce to rank 0 chained with a broadcast, a two-level
// form whose cluster leaders exchange their partials, a ring, or the
// multi-leader sharded form.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) (*CollRequest, error) {
	if err := c.checkBuf("Iallreduce", "send", sendBuf, count, dt); err != nil {
		return nil, err
	}
	if err := c.checkBuf("Iallreduce", "recv", recvBuf, count, dt); err != nil {
		return nil, err
	}
	return c.startColl("Iallreduce", kindAllreduce, count*dt.Size(),
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt, op: op})
}

// IreduceScatter starts a nonblocking reduce-scatter with equal counts
// (MPI_Ireduce_scatter_block): the count-per-rank blocks of every member's
// sendBuf are combined with op and block r lands in rank r's recvBuf. Ring
// schedules throughout — the flat bandwidth-optimal ring, or the two-level
// variant (intra-cluster ring + leader bundle exchange) on multi-cluster
// topologies.
func (c *Comm) IreduceScatter(sendBuf, recvBuf []byte, countPerRank int, dt Datatype, op Op) (*CollRequest, error) {
	if err := c.checkBuf("IreduceScatter", "send", sendBuf, c.Size()*countPerRank, dt); err != nil {
		return nil, err
	}
	if err := c.checkBuf("IreduceScatter", "recv", recvBuf, countPerRank, dt); err != nil {
		return nil, err
	}
	return c.startColl("IreduceScatter", kindReduceScatter, c.Size()*countPerRank*dt.Size(),
		collArgs{send: sendBuf, recv: recvBuf, count: countPerRank, dt: dt, op: op})
}

// Igather starts a nonblocking gather to root (MPI_Igather).
func (c *Comm) Igather(sendBuf, recvBuf []byte, count int, dt Datatype, root int) (*CollRequest, error) {
	if err := c.checkBuf("Igather", "send", sendBuf, count, dt); err != nil {
		return nil, err
	}
	if c.myRank == root {
		if err := c.checkBuf("Igather", "recv", recvBuf, c.Size()*count, dt); err != nil {
			return nil, err
		}
	}
	return c.startColl("Igather", kindGather, count*dt.Size(),
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt, root: root})
}

// Iallgather starts a nonblocking all-gather (MPI_Iallgather).
func (c *Comm) Iallgather(sendBuf, recvBuf []byte, count int, dt Datatype) (*CollRequest, error) {
	if err := c.checkBuf("Iallgather", "send", sendBuf, count, dt); err != nil {
		return nil, err
	}
	if err := c.checkBuf("Iallgather", "recv", recvBuf, c.Size()*count, dt); err != nil {
		return nil, err
	}
	return c.startColl("Iallgather", kindAllgather, count*dt.Size(),
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt})
}

// Ialltoall starts a nonblocking all-to-all (MPI_Ialltoall). On
// multi-cluster topologies the two-level schedule bundles traffic through
// cluster leaders so each backbone link is crossed O(clusters) times
// instead of O(n) (see alltoallBundles).
func (c *Comm) Ialltoall(sendBuf, recvBuf []byte, count int, dt Datatype) (*CollRequest, error) {
	want := c.Size() * count * dt.Extent()
	if len(sendBuf) < want || len(recvBuf) < want {
		return nil, fmt.Errorf("mpi: Ialltoall: buffers need %d bytes (send %d, recv %d)",
			want, len(sendBuf), len(recvBuf))
	}
	return c.startColl("Ialltoall", kindAlltoall, c.Size()*count*dt.Size(),
		collArgs{send: sendBuf, recv: recvBuf, count: count, dt: dt})
}
