// Package adi reimplements MPICH's Abstract Device Interface (§2.2 of the
// paper): the request objects, message envelopes and matching queues that
// the generic MPI layer drives, plus the Device abstraction that network
// modules (ch_mad, ch_self, smp_plug, ch_p4) plug into, and the low-level
// "channel interface" (§2.2.1) with its generic short/eager/rendez-vous
// protocol engine.
package adi

import (
	"fmt"

	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Envelope is the control information carried with every message
// (MPID_PKT_HEAD_T in MPICH terms).
type Envelope struct {
	Src     int // world rank of the sender
	Tag     int
	Context int // communicator context id
	Len     int // payload bytes
}

func (e Envelope) String() string {
	return fmt.Sprintf("{src=%d tag=%d ctx=%d len=%d}", e.Src, e.Tag, e.Context, e.Len)
}

// Status reports the outcome of a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// SendReq is an in-flight send (MPIR_SHANDLE). Done fires at local
// completion: the buffer is reusable and MPI_Send/Wait may return.
type SendReq struct {
	Env  Envelope
	Dst  int // destination world rank
	Data []byte
	// Sync requests synchronous-mode semantics (MPI_Ssend): completion
	// only after the receiver has matched the message. Devices realize
	// it by forcing the rendez-vous transfer mode.
	Sync bool
	Done *vtime.Event
	Err  error
	pooled
}

// RecvReq is an in-flight receive (MPIR_RHANDLE / rhandle). Done fires
// when the payload is in Buf and Status is filled; a request that is only
// ever completed through OnComplete may leave it nil.
type RecvReq struct {
	Src, Tag, Context int // Src/Tag may be wildcards
	Buf               []byte
	Status            Status
	Done              *vtime.Event
	Err               error
	// OnComplete, if set, runs just before Done fires — in device or
	// scheduler context, so it must not block. The MPI layer's collective
	// progress engine uses it to advance schedule rounds event-driven
	// instead of polling each request.
	OnComplete func()
	// Lease, on a request posted with no Buf, is the length of the buffer
	// the engine leases it from Bufs when a message matches it — at
	// MatchPosted, or in PostRecv from the unexpected queue — so that its
	// bytes are held from the match on, not from the post. Leased is that
	// buffer, Buf its bytes: the poster sends it home once it has read
	// them. A request of the free list drops both at its Release.
	Lease  int
	Leased *netsim.Buf
	pooled
}

// pooled is what a request of an engine's free list carries (NewSend,
// NewRecv): the engine, and a generation count that is odd while the
// request is out and even while it is home, so that a second Release
// panics. A request made by hand has none and is never released.
type pooled struct {
	eng *Engine
	gen uint32
}

// home moves the request's generation on to "home", panicking when it was
// home already.
func (p *pooled) home(what string) {
	if p.gen%2 == 0 {
		panic("adi: " + what + " request released twice, or never handed out by an engine")
	}
	p.gen++
}

// NewSend hands out a send request of the engine's free list, every field
// zero but Done: unfired, named name (deadlock dumps). Whoever waits for its
// completion gives it back with Release. A free list is the engine's own,
// like everything else of a simulated process, so it takes no lock.
func (e *Engine) NewSend(name string) *SendReq {
	var sr *SendReq
	if n := len(e.sends); n > 0 {
		sr, e.sends = e.sends[n-1], e.sends[:n-1]
		sr.Done.Rearm(name)
	} else {
		sr = &SendReq{Done: vtime.NewEvent(e.P.S, name), pooled: pooled{eng: e}}
	}
	sr.gen++
	return sr
}

// Release sends a completed send request home, cleared, so that it pins no
// buffer. The holder must not touch it again: its Done event is retired
// until the request is handed out anew, so a stale Wait or Fire panics, and
// so does a second Release.
func (sr *SendReq) Release() {
	sr.home("send")
	*sr = SendReq{Done: sr.Done, pooled: sr.pooled}
	sr.Done.Retire()
	sr.eng.sends = append(sr.eng.sends, sr)
}

// NewRecv is NewSend for a receive request.
func (e *Engine) NewRecv(name string) *RecvReq {
	var rr *RecvReq
	if n := len(e.recvs); n > 0 {
		rr, e.recvs = e.recvs[n-1], e.recvs[:n-1]
		rr.Done.Rearm(name)
	} else {
		rr = &RecvReq{Done: vtime.NewEvent(e.P.S, name), pooled: pooled{eng: e}}
	}
	rr.gen++
	return rr
}

// Release is SendReq.Release for a completed receive request.
func (rr *RecvReq) Release() {
	rr.home("receive")
	*rr = RecvReq{Done: rr.Done, pooled: rr.pooled}
	rr.Done.Retire()
	rr.eng.recvs = append(rr.eng.recvs, rr)
}

// ReleaseLease sends the buffer the engine leased the request at match home,
// if it leased one: its poster's last use of Buf is behind it.
func (rr *RecvReq) ReleaseLease() {
	if rr.Leased != nil {
		rr.Leased.Release()
		rr.Buf, rr.Leased = nil, nil
	}
}

// matches reports whether an incoming envelope satisfies this receive.
func (r *RecvReq) matches(env Envelope) bool {
	return r.Context == env.Context &&
		(r.Src == AnySource || r.Src == env.Src) &&
		(r.Tag == AnyTag || r.Tag == env.Tag)
}

// ErrTruncate is stored in RecvReq.Err when the incoming message is longer
// than the posted buffer (MPI_ERR_TRUNCATE).
var ErrTruncate = fmt.Errorf("adi: message truncated: buffer shorter than incoming data")

// Device is a network module handling sends toward some set of
// destinations. Receiving is device-internal: devices push incoming
// messages into the process's Engine.
//
// MPICH's MPID_Device structure (§4.2.2) exposes exactly ONE
// eager->rendez-vous threshold even when the device multiplexes several
// networks. The threshold is each device's own business: ch_mad, the
// device behind the per-link device mux, elects that one value as its
// fallback and resolves the threshold per destination from the link
// actually carrying it (core.Device.SwitchPointTo) — the fix for the
// single-protocol limitation.
type Device interface {
	Name() string
	// Send initiates sr; sr.Done fires at local completion. Called from
	// the MPI (application) thread of the sending process.
	Send(sr *SendReq)
	// Shutdown stops device threads. Called once at MPI_Finalize.
	Shutdown()
}

// Auditor is optionally implemented by devices that can verify their
// protocol invariants once traffic has drained: credit windows back to
// full, no rendez-vous or reassembly state left open, counters internally
// consistent. The cluster session audits every device after a clean run —
// the runtime counterpart of the madlint static checks.
type Auditor interface {
	AuditInvariants() error
}

// unexpected is a queued message that arrived before a matching receive
// was posted. deliver completes a receive from the stashed message,
// charging whatever copies the owning device's protocol implies.
type unexpected struct {
	env     Envelope
	deliver func(*RecvReq)
}

// Engine holds the per-process matching state shared by every device of
// that process: the posted-receive queue and the unexpected-message queue
// (§2.2: "process the queues of pending messages").
type Engine struct {
	P    *marcel.Proc
	Rank int

	posted []*RecvReq
	unexp  []*unexpected

	// The free lists of NewSend and NewRecv, the last request home on top.
	sends []*SendReq
	recvs []*RecvReq

	// Bufs is where the process's devices stash a payload that must
	// outlive its packet — an unexpected message, a truncated stream:
	// taken at arrival, released by the deliver closure once it has
	// copied out — and where a receive posted with a Lease gets its
	// buffer at match. The MPI layer above leases its collective staging
	// and its autotune probe buffers from the same list (mpi's schedule.go).
	// NewEngine gives the engine a list of its own; a cluster session
	// replaces it with the session's one, which its networks share too.
	Bufs *netsim.BufList

	// Counters for tests and diagnostics.
	NPosted, NUnexpected, NMatched uint64
}

// NewEngine creates the matching engine for one process.
func NewEngine(p *marcel.Proc, rank int) *Engine {
	return &Engine{P: p, Rank: rank, Bufs: new(netsim.BufList)}
}

// PostRecv registers a receive request, first trying to satisfy it from
// the unexpected queue. Called from the application thread.
func (e *Engine) PostRecv(r *RecvReq) {
	if r.eng != nil && r.gen%2 == 0 {
		panic("adi: receive request posted after its Release")
	}
	for i, u := range e.unexp {
		if r.matches(u.env) {
			e.unexp = append(e.unexp[:i], e.unexp[i+1:]...)
			e.NMatched++
			e.lease(r)
			u.deliver(r)
			return
		}
	}
	e.NPosted++
	e.posted = append(e.posted, r)
}

// MatchPosted finds and removes the first posted receive matching env.
// Called by device polling threads at message arrival.
func (e *Engine) MatchPosted(env Envelope) *RecvReq {
	for i, r := range e.posted {
		if r.matches(env) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			e.NMatched++
			e.lease(r)
			return r
		}
	}
	return nil
}

// lease gives a matched request posted with a lease length its buffer.
func (e *Engine) lease(r *RecvReq) {
	if r.Buf == nil && r.Lease > 0 {
		r.Leased = e.Bufs.Get(r.Lease)
		r.Buf = r.Leased.B
	}
}

// AddUnexpected queues an arrived-but-unmatched message.
func (e *Engine) AddUnexpected(env Envelope, deliver func(*RecvReq)) {
	e.NUnexpected++
	e.unexp = append(e.unexp, &unexpected{env: env, deliver: deliver})
}

// FinishRecv fills in status/error and fires completion; shared helper for
// device delivery paths. Every device's receive path funnels through here,
// making it the single completion hook point for engine progress.
func FinishRecv(r *RecvReq, env Envelope, err error) {
	r.Status = Status{Source: env.Src, Tag: env.Tag, Len: env.Len}
	if err != nil {
		r.Err = err
	}
	if r.OnComplete != nil {
		r.OnComplete()
	}
	if r.Done != nil {
		r.Done.Fire()
	}
}

// CheckLen validates the posted buffer length against the envelope,
// returning ErrTruncate (and the clamped copy length) on overflow.
func CheckLen(r *RecvReq, env Envelope) (int, error) {
	if env.Len > len(r.Buf) {
		return len(r.Buf), ErrTruncate
	}
	return env.Len, nil
}
