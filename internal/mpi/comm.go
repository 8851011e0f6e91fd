package mpi

import (
	"fmt"
	"sort"

	"mpichmad/internal/adi"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// Wildcards (same values as the ADI's).
const (
	AnySource = adi.AnySource
	//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
	AnyTag = adi.AnyTag
)

// Undefined is the color passed to Split by ranks that want no resulting
// communicator (MPI_UNDEFINED).
const Undefined = -1

// Process is the per-rank MPI library state: the glue between the
// application-facing API and the devices below, created by the cluster
// session at MPI_Init time.
type Process struct {
	M   *marcel.Proc
	Eng *adi.Engine

	rank    int
	route   func(dstWorldRank int) adi.Device
	devices []adi.Device // distinct devices, for Finalize

	// World is MPI_COMM_WORLD.
	World *Comm

	// nextCtx is this process's context-id allocator; agreement across
	// ranks is established collectively at communicator creation.
	nextCtx int

	// hier is the discovered cluster structure (nil: flat collectives
	// only) and collMode the algorithm-selection override; see topology.go.
	hier     *Hierarchy
	collMode CollMode

	// tuned is the measured crossover table installed by Autotune (nil:
	// analytic fallback); forcedAlgo is the autotuner's candidate hook,
	// overriding every other selection while a timed run is in flight.
	tuned      *tuneTable
	forcedAlgo *collAlgo

	// classProbes lists the representative rank pairs the autotuner times
	// to measure per-class eager thresholds ("smp", "san", "wan"),
	// identical on every rank; classSwitch holds the measured per-class
	// thresholds once installed.
	classProbes []ClassProbe
	classSwitch map[string]int

	// tracer, when installed by SetTrace, records schedule-round spans
	// of every collective this rank executes on traceTrack (the rank's
	// Chrome track). Nil: the progress engine pays one branch per op.
	tracer     *trace.Tracer
	traceTrack int

	// spare holds the schedules that ran to completion, cleared, for the
	// next compile to reuse (newSched, recycle).
	spare []*schedule

	finalized bool
}

// SetTrace attaches the session tracer to this rank's progress engine;
// track is the rank's trace track. Called by the cluster wiring.
func (p *Process) SetTrace(t *trace.Tracer, track int) {
	p.tracer = t
	p.traceTrack = track
}

// NewProcess wires a rank's MPI state. world is MPI_COMM_WORLD's group, the
// identity (WorldGroup) — never written, so a session makes one and hands it
// to every rank. route selects the device for each destination world rank;
// devices lists the distinct devices for Finalize-time shutdown.
func NewProcess(m *marcel.Proc, eng *adi.Engine, rank int, world []int,
	route func(int) adi.Device, devices []adi.Device) *Process {
	p := &Process{
		M: m, Eng: eng,
		rank:  rank,
		route: route, devices: devices,
		nextCtx: 2, // 0/1 are world's p2p and collective contexts
	}
	p.World = &Comm{p: p, group: world, myRank: rank, ctx: 0}
	return p
}

// WorldGroup returns the group of an n-rank MPI_COMM_WORLD: rank r is world
// rank r.
func WorldGroup(n int) []int {
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	return group
}

// memcpyBW is the bandwidth of a local memcpy, in bytes per second.
const memcpyBW = 350 * netsim.MB

// memTime is the CPU cost of an n-byte local memcpy (datatype packing,
// collective staging).
func (p *Process) memTime(n int) vtime.Duration {
	if n <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / memcpyBW * float64(vtime.Second))
}

// Finalize performs the MPI_Finalize sequence: a world barrier, then
// device shutdown.
func (p *Process) Finalize() error {
	if p.finalized {
		return fmt.Errorf("mpi: Finalize called twice on rank %d", p.rank)
	}
	if err := p.World.Barrier(); err != nil {
		return err
	}
	p.finalized = true
	for _, d := range p.devices {
		d.Shutdown()
	}
	return nil
}

// AuditDevices runs the Finalize-time invariant audit on every device of
// this rank that implements adi.Auditor, returning the first violation.
// Meaningful only after the simulation has fully drained (a gateway may
// forward for other ranks after its own Finalize), so the cluster session
// calls it after the scheduler returns rather than inside Finalize.
func (p *Process) AuditDevices() error {
	for _, d := range p.devices {
		a, ok := d.(adi.Auditor)
		if !ok {
			continue
		}
		if err := a.AuditInvariants(); err != nil {
			return fmt.Errorf("mpi: rank %d device %s: %w", p.rank, d.Name(), err)
		}
	}
	return nil
}

// Comm is an MPI communicator: a process group plus an isolated context.
// Point-to-point traffic uses ctx, collectives ctx+1, mirroring MPICH's
// paired context ids.
type Comm struct {
	p *Process
	// group maps comm rank -> world rank. It is never written once the
	// communicator exists: Dups share it, and the world's is one slice for
	// all the ranks of a session.
	group  []int
	myRank int // my rank within the communicator
	ctx    int

	// ct caches the communicator's dense hierarchy view (topology.go),
	// computed on first collective dispatch; flat its one-cluster view,
	// computed when a flat form first compiles against it.
	ct, flat *commTopo

	// eng is the communicator's collective progress engine (nbc.go),
	// created by its first collective; the engine's thread is started by
	// the first collective that queues.
	eng *collEngine
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// commRankOfWorld translates a world rank back to this communicator's
// numbering; -1 if absent. Where the group is the identity at w (the world
// and its Dups: every rank) no scan is needed; topo() asks once per cluster
// leader, which on the 1024-rank world was O(clusters x N) per rank.
func (c *Comm) commRankOfWorld(w int) int {
	if uint(w) < uint(len(c.group)) && c.group[w] == w {
		return w
	}
	for i, g := range c.group {
		if g == w {
			return i
		}
	}
	return -1
}

// allocContext agrees on a fresh context id across the parent
// communicator: the max of every member's allocator (then everyone bumps
// past it). Correct because any two communicators sharing a process can
// never be given the same id by that process's allocator.
func (c *Comm) allocContext() (int, error) {
	local := Int64Bytes([]int64{int64(c.p.nextCtx)})
	out := make([]byte, 8)
	if err := c.Allreduce(local, out, 1, Int64, OpMax); err != nil {
		return 0, err
	}
	ctx := int(BytesInt64(out)[0])
	c.p.nextCtx = ctx + 2
	return ctx, nil
}

// Dup creates a duplicate communicator with a fresh context
// (MPI_Comm_dup). Collective over c. The duplicate shares c's group slice,
// which is how topo() knows a Dup of the world for one.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func (c *Comm) Dup() (*Comm, error) {
	ctx, err := c.allocContext()
	if err != nil {
		return nil, err
	}
	return &Comm{p: c.p, group: c.group, myRank: c.myRank, ctx: ctx}, nil
}

// Split partitions the communicator by color, ordering each new group by
// (key, old rank) (MPI_Comm_split). Ranks passing Undefined get nil.
// Collective over c.
func (c *Comm) Split(color, key int) (*Comm, error) {
	ctx, err := c.allocContext()
	if err != nil {
		return nil, err
	}
	mine := Int64Bytes([]int64{int64(color), int64(key)})
	all := make([]byte, 16*c.Size())
	if err := c.Allgather(mine, all, 2, Int64); err != nil {
		return nil, err
	}
	vals := BytesInt64(all)
	if color == Undefined {
		return nil, nil
	}
	type member struct{ key, oldRank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		if int(vals[2*r]) == color {
			members = append(members, member{key: int(vals[2*r+1]), oldRank: r})
		}
	}
	// members is in old-rank order: a stable sort by key keeps it for ties.
	sort.SliceStable(members, func(i, j int) bool { return members[i].key < members[j].key })
	group := make([]int, len(members))
	myNew := -1
	for i, m := range members {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.myRank {
			myNew = i
		}
	}
	return &Comm{p: c.p, group: group, myRank: myNew, ctx: ctx}, nil
}
