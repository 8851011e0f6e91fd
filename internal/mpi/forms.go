package mpi

// The collective form table: the single place that says which algorithm
// exists for which operation, what communicator shape it needs, and which
// compiler builds it. Dispatch (startColl), degradation of an unrunnable
// choice (sanitizeAlgo) and the autotuner's candidate list
// (tuneCandidates) all read it, so adding an algorithm is one compiler and
// one row.

// collArgs is the uniform argument record of every collective compiler.
// Bcast passes its one buffer as both send and recv; count is per rank for
// the gather, all-to-all and reduce-scatter families.
type collArgs struct {
	send, recv []byte
	count      int
	dt         Datatype
	op         Op
	root       int
}

// recvApart is a.recv, or nil when it is the very memory of a.send: what an
// Alltoall compiler passes to schedBuilder.landing, because it still reads
// blocks of the send matrix after the first received block has landed.
func (a collArgs) recvApart() []byte {
	if sameMemory(a.send, a.recv) {
		return nil
	}
	return a.recv
}

// collShape grades a communicator by how much hierarchy it offers; a form
// runs on any communicator whose shape is at least the one it needs.
type collShape int

const (
	shapeAny     collShape = iota // one cluster, or no hierarchy installed
	shapeMulti                    // spans at least two clusters
	shapeMultiGW                  // ... and some cluster fronts several gateways
)

// shape grades this communicator.
func (c *Comm) shape() collShape {
	ct := c.topo()
	switch {
	case ct == nil || ct.nClusters < 2:
		return shapeAny
	case ct.widest < 2:
		return shapeMulti
	default:
		return shapeMultiGW
	}
}

// compileFn appends one operation's rounds to b, compiled against the
// hierarchy view ct, and returns the schedule's completion closure (nil
// for none).
type compileFn func(c *Comm, b *schedBuilder, ct *commTopo, a collArgs) func()

// collForm is one row of the table: operation kind × algorithm → the shape
// it needs, the schedule's trace name and its compiler.
type collForm struct {
	kind    collKind
	algo    collAlgo
	needs   collShape
	name    string
	compile compileFn
}

// blind runs a compiler on the one-cluster view of the communicator
// instead of its real hierarchy: the topology-blind case of a two-level
// compiler.
func blind(f compileFn) compileFn {
	return func(c *Comm, b *schedBuilder, _ *commTopo, a collArgs) func() {
		return f(c, b, c.oneClusterTopo(), a)
	}
}

// collForms lists every form. Within an operation the rows keep the global
// order flat, ring, 2level, 2level-seg, 2level-ring, 2level-multi: it is
// the autotuner's probe order, and with it the virtual cost of MPI_Init
// and the table MPI_Init installs (a probe's reading depends on what ran
// before it).
//
// Rows marked blind are not algorithms of their own: they are the
// two-level compiler of the same operation run on one cluster. The
// remaining flat rows are distinct algorithms (see collectives.go), as is
// every 2level-multi row (hmulti.go: sharded across the leader set, no
// primary-leader funnel — not the one-leader case of anything above it).
var collForms = []collForm{
	{kindBarrier, algoFlat, shapeAny, "barrier", (*Comm).barrierDissemination},
	{kindBarrier, algoHier, shapeMulti, "barrier.h", (*Comm).barrierTree},

	{kindBcast, algoFlat, shapeAny, "bcast", blind(func(c *Comm, b *schedBuilder, ct *commTopo, a collArgs) func() {
		return c.bcastTree(b, ct, a, 0)
	})},
	{kindBcast, algoHier, shapeMulti, "bcast.h", func(c *Comm, b *schedBuilder, ct *commTopo, a collArgs) func() {
		return c.bcastTree(b, ct, a, 0)
	}},
	{kindBcast, algoHierSegmented, shapeMulti, "bcast.h", func(c *Comm, b *schedBuilder, ct *commTopo, a collArgs) func() {
		return c.bcastTree(b, ct, a, c.segmentBytes())
	}},
	{kindBcast, algoHierMulti, shapeMultiGW, "bcast.hm", (*Comm).bcastMulti},

	{kindReduce, algoFlat, shapeAny, "reduce", blind((*Comm).reduceTree)},
	{kindReduce, algoHier, shapeMulti, "reduce.h", (*Comm).reduceTree},

	{kindAllreduce, algoFlat, shapeAny, "allreduce", blind((*Comm).allreduceTree)},
	{kindAllreduce, algoRing, shapeAny, "allreduce.ring", blind((*Comm).allreduceRing)},
	{kindAllreduce, algoHier, shapeMulti, "allreduce.h", (*Comm).allreduceTree},
	{kindAllreduce, algoRingHier, shapeMulti, "allreduce.ringh", (*Comm).allreduceRing},
	{kindAllreduce, algoHierMulti, shapeMultiGW, "allreduce.hm", (*Comm).allreduceMulti},

	{kindGather, algoFlat, shapeAny, "gather", blind((*Comm).gatherStaged)},
	{kindGather, algoHier, shapeMulti, "gather.h", (*Comm).gatherStaged},

	{kindAllgather, algoFlat, shapeAny, "allgather", (*Comm).allgatherRing},
	{kindAllgather, algoHier, shapeMulti, "allgather.h", (*Comm).allgatherBundles},
	{kindAllgather, algoHierMulti, shapeMultiGW, "allgather.hm", (*Comm).allgatherMulti},

	{kindAlltoall, algoFlat, shapeAny, "alltoall", (*Comm).alltoallPairwise},
	{kindAlltoall, algoHier, shapeMulti, "alltoall.h", (*Comm).alltoallBundles},
	{kindAlltoall, algoHierMulti, shapeMultiGW, "alltoall.hm", (*Comm).alltoallMulti},

	{kindReduceScatter, algoRing, shapeAny, "redscat.ring", blind((*Comm).reduceScatterRing)},
	{kindReduceScatter, algoRingHier, shapeMulti, "redscat.ringh", (*Comm).reduceScatterRing},
}

// formOf returns the table row of an (operation, algorithm) pair, nil when
// the operation has no such form.
func formOf(kind collKind, a collAlgo) *collForm {
	for i := range collForms {
		if f := &collForms[i]; f.kind == kind && f.algo == a {
			return f
		}
	}
	return nil
}

// collKinds describes the operations: the MPI name used in snapshots and
// reports, whether the operation takes a root, and whether the autotuner
// times its forms (for Barrier, Reduce and Gather the analytic choice is
// not worth second-guessing with probes).
var collKinds = [numCollKinds]struct {
	name          string
	rooted, tuned bool
}{
	kindBarrier:       {name: "Barrier"},
	kindBcast:         {name: "Bcast", rooted: true, tuned: true},
	kindReduce:        {name: "Reduce", rooted: true},
	kindAllreduce:     {name: "Allreduce", tuned: true},
	kindGather:        {name: "Gather", rooted: true},
	kindAllgather:     {name: "Allgather", tuned: true},
	kindAlltoall:      {name: "Alltoall", tuned: true},
	kindReduceScatter: {name: "ReduceScatter", tuned: true},
}

// collAlgos describes the algorithm families: the stable name used in
// snapshots and reports, and what a choice degrades to when it cannot run
// — noForm when the operation has no such form, noShape when it has one
// but the communicator lacks the shape the form needs.
var collAlgos = [...]struct {
	name            string
	noForm, noShape collAlgo
}{
	algoFlat:          {"flat", algoRing, algoFlat},
	algoHier:          {"2level", algoRingHier, algoFlat},
	algoHierSegmented: {"2level-seg", algoHier, algoFlat},
	algoRing:          {"ring", algoFlat, algoRing},
	algoRingHier:      {"2level-ring", algoHier, algoRing},
	algoHierMulti:     {"2level-multi", algoHier, algoHier},
}

// sanitizeAlgo degrades an algorithm choice to one this communicator and
// operation can actually run, following collAlgos' degrade columns until a
// table row fits: multi-leader and segmented choices fall back to the
// two-level tree, two-level ones to their flat counterpart, and tree
// choices on ReduceScatter (which only has rings) to the ring of the same
// level. Keeps forced modes and stale tuning tables safe on any
// communicator (e.g. a Split sub-communicator confined to one island).
func (c *Comm) sanitizeAlgo(kind collKind, a collAlgo) collAlgo {
	shape := c.shape()
	for {
		switch f := formOf(kind, a); {
		case f == nil:
			a = collAlgos[a].noForm
		case shape < f.needs:
			a = collAlgos[a].noShape
		default:
			return a
		}
	}
}

// tuneCandidates lists the algorithms worth timing for an operation on
// this communicator's shape, in table order; fewer than two means there is
// no choice to measure.
func (c *Comm) tuneCandidates(kind collKind) []collAlgo {
	if !collKinds[kind].tuned {
		return nil
	}
	shape := c.shape()
	var cands []collAlgo
	for _, f := range collForms {
		if f.kind == kind && shape >= f.needs {
			cands = append(cands, f.algo)
		}
	}
	return cands
}
