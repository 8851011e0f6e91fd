package main

import (
	"fmt"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// nbcHetero drives the layers the other workloads leave cold: a strided
// datatype through Isend/Irecv, a nonblocking collective overlapped with
// computation, and messages that arrive before their receive is posted —
// on a machine where every device class (self, smp, san, wan) carries
// traffic at once.
type nbcHetero struct {
	steps    int
	autotune bool
	msgSize  []int              // phase (c) message size of each step
	slices   [][]vtime.Duration // phase (b) compute slices of each step
	sums     [][]byte           // phase (b) right answer of each pattern slot
	pat      *pattern
	fails    [3][]string
}

const (
	nbcRanks    = 8
	gridSide    = 256                     // each rank owns a gridSide × gridSide float64 array
	haloBytes   = gridSide * 8            // one column
	reduceCount = 8192                    // 64 KiB of float64
	smallMsg    = 512                     // rides the eager path on every link class
	largeMsg    = 24 << 10                // rendez-vous on the TCP class, eager on the SAN classes
	rootCompute = 500 * vtime.Microsecond // long enough for every request to reach rank 0 first
	phaseHalo   = 0
	phaseReduce = 1
	phaseUnexp  = 2
	tagHalo     = 11
	tagUnexp    = 12
)

var phaseNames = [3]string{"halo", "iallreduce", "unexpected"}

// heteroTopo is two dual-processor nodes on an SCI island and two on a
// Myrinet/BIP island, all four on a shared Fast-Ethernet backbone.
func heteroTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "sciN0", Procs: 2}, {Name: "sciN1", Procs: 2},
			{Name: "myriN0", Procs: 2}, {Name: "myriN1", Procs: 2},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"sciN0", "sciN1"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"myriN0", "myriN1"}},
			{Name: "eth", Protocol: "tcp", Nodes: []string{"sciN0", "sciN1", "myriN0", "myriN1"}},
		},
	}
}

func prepareNBC(seed int64, smoke bool) runner {
	w := &nbcHetero{steps: 200, autotune: true}
	if smoke {
		w.steps, w.autotune = 6, false
	}
	rng := newPRNG(seed, "nbc_hetero")
	w.pat = newPattern(rng, reduceCount*8, nbcRanks)
	// Half the steps send the small message and half the large one, in a
	// seeded order, so every seed moves the same bytes.
	for _, i := range rng.perm(w.steps) {
		size := smallMsg
		if i%2 == 1 {
			size = largeMsg
		}
		w.msgSize = append(w.msgSize, size)
	}
	// Eight compute slices per step, a seeded order of the same eight
	// lengths: 8.8 ms of computation beside each 64 KiB reduction.
	for s := 0; s < w.steps; s++ {
		var sl []vtime.Duration
		for _, k := range rng.perm(8) {
			sl = append(sl, vtime.Duration(400+200*k)*vtime.Microsecond)
		}
		w.slices = append(w.slices, sl)
	}
	for slot := 0; slot < opSlots && slot < w.steps; slot++ {
		w.sums = append(w.sums, w.pat.fsum(slot, nbcRanks, reduceCount))
	}
	for p := range w.fails {
		w.fails[p] = make([]string, w.steps)
	}
	return w
}

func (w *nbcHetero) autotuned() *cluster.Topology {
	if !w.autotune {
		return nil
	}
	topo := heteroTopo()
	topo.Autotune = true
	return &topo
}

func (w *nbcHetero) repetition(r *rep) error {
	for p := range w.fails {
		for i := range w.fails[p] {
			w.fails[p][i] = ""
		}
	}
	topo := heteroTopo()
	topo.Autotune = w.autotune
	// Virtual time spent in each phase, and computing inside phase (b),
	// summed over the ranks: one rank's own clock times where it sits in
	// the ring, the mean over the ranks times the phase.
	var phase [3]vtime.Duration
	var computed vtime.Duration
	err := r.session("steps", topo, func(sess *cluster.Session, rank int, comm *mpi.Comm) error {
		sp := -1
		if rank == 0 {
			sp = r.spans.begin(fmt.Sprintf("batch:steps/%d", w.steps))
		}
		st := &nbcRank{w: w, r: r, sess: sess, rank: rank, comm: comm,
			grid: make([]byte, gridSide*gridSide*8),
			recv: make([]byte, reduceCount*8),
			msg:  make([]byte, largeMsg),
			col:  make([]byte, haloBytes)}
		for i := 0; i < w.steps; i++ {
			t0 := sess.S.Now()
			if err := st.halo(i); err != nil {
				return fmt.Errorf("step %d halo: %w", i, err)
			}
			t1 := sess.S.Now()
			if err := st.reduce(i); err != nil {
				return fmt.Errorf("step %d iallreduce: %w", i, err)
			}
			t2 := sess.S.Now()
			if err := st.unexpected(i); err != nil {
				return fmt.Errorf("step %d unexpected: %w", i, err)
			}
			phase[phaseHalo] += t1.Sub(t0)
			phase[phaseReduce] += t2.Sub(t1)
			phase[phaseUnexp] += sess.S.Now().Sub(t2)
			for _, d := range w.slices[i] {
				computed += d
			}
		}
		r.spans.end(sp)
		return nil
	})
	if err != nil {
		return err
	}
	sizes := [3]int{haloBytes, reduceCount * 8, 0}
	for p, name := range phaseNames {
		r.add(name, sizes[p], phase[p]/vtime.Duration(w.steps*nbcRanks))
		for _, why := range w.fails[p] {
			r.op(why)
		}
	}
	r.counts["mpi.nbc_overlap_pct"] = 100 * computed.Seconds() / phase[phaseReduce].Seconds()
	return nil
}

// nbcRank is one rank's state across the steps.
type nbcRank struct {
	w    *nbcHetero
	r    *rep
	sess *cluster.Session
	rank int
	comm *mpi.Comm
	grid []byte // gridSide × gridSide float64; column 0 is the ghost column, column 1 the one sent
	recv []byte
	msg  []byte
	col  []byte // the ghost column, gathered for the check
}

func (st *nbcRank) fail(phase, i int, why string) {
	if why != "" && st.w.fails[phase][i] == "" {
		st.w.fails[phase][i] = fmt.Sprintf("step %d %s rank %d: %s", i, phaseNames[phase], st.rank, why)
	}
}

// halo is phase (a): every rank sends one strided column of its array to
// its right neighbour and receives its left neighbour's into the ghost
// column, through a vector datatype, so the bytes are packed and
// unpacked element by element.
func (st *nbcRank) halo(i int) error {
	column := mpi.Vector(gridSide, 1, gridSide, mpi.Float64)
	right := (st.rank + 1) % nbcRanks
	left := (st.rank + nbcRanks - 1) % nbcRanks
	mine := st.w.pat.fwindow(i, st.rank, gridSide)
	for k := 0; k < gridSide; k++ {
		copy(st.grid[(k*gridSide+1)*8:][:8], mine[k*8:])
	}
	rq, err := st.comm.Irecv(st.grid, 1, column, left, tagHalo)
	if err != nil {
		return err
	}
	sq, err := st.comm.Isend(st.grid[8:], 1, column, right, tagHalo)
	if err != nil {
		return err
	}
	st.r.mpiOps += 3
	if _, err := mpi.WaitAll(rq, sq); err != nil {
		return err
	}
	for k := 0; k < gridSide; k++ {
		copy(st.col[k*8:][:8], st.grid[k*gridSide*8:])
	}
	st.fail(phaseHalo, i, st.r.check("ghost column", st.col, st.w.pat.fwindow(i, left, gridSide)))
	return nil
}

// reduce is phase (b): a 64 KiB Iallreduce whose progress is driven from
// between eight slices of computation.
func (st *nbcRank) reduce(i int) error {
	req, err := st.comm.Iallreduce(st.w.pat.fwindow(i, st.rank, reduceCount), st.recv,
		reduceCount, mpi.Float64, mpi.OpSum)
	if err != nil {
		return err
	}
	st.r.mpiOps += 2
	for _, d := range st.w.slices[i] {
		st.sess.Ranks[st.rank].Proc.Compute(d)
		st.r.mpiOps++
		if _, err := req.Test(); err != nil {
			return err
		}
	}
	if err := req.Wait(); err != nil {
		return err
	}
	st.fail(phaseReduce, i, st.r.check("Iallreduce", st.recv, st.w.sums[i%opSlots]))
	return nil
}

// unexpected is phase (c): ranks 1-7 send to rank 0, which computes
// first and only then receives from any source, so every message (or its
// rendez-vous request) is queued unexpected and matched late.
func (st *nbcRank) unexpected(i int) error {
	size := st.w.msgSize[i]
	if st.rank != 0 {
		st.r.mpiOps++
		return st.comm.Send(st.w.pat.window(i, st.rank, size), size, mpi.Byte, 0, tagUnexp)
	}
	st.sess.Ranks[0].Proc.Compute(rootCompute)
	for k := 1; k < nbcRanks; k++ {
		st.r.mpiOps++
		status, err := st.comm.Recv(st.msg, size, mpi.Byte, mpi.AnySource, tagUnexp)
		if err != nil {
			return err
		}
		st.fail(phaseUnexp, i, st.r.check(fmt.Sprintf("message from %d", status.Source),
			st.msg[:size], st.w.pat.window(i, status.Source, size)))
	}
	return nil
}

// headline: latency is the per-step time of the unexpected-message
// phase, bandwidth the halo bytes one rank sends per step over the halo
// phase's time, both as the mean over the ranks.
func (w *nbcHetero) headline(r *rep) (latUS, bwMBps, opGmeanUS float64) {
	var all []float64
	for _, p := range r.points {
		all = append(all, usOf(p.PerOp))
		switch p.Series {
		case phaseNames[phaseUnexp]:
			latUS = usOf(p.PerOp)
		case phaseNames[phaseHalo]:
			bwMBps = mbpsOf(haloBytes, p.PerOp)
		}
	}
	return latUS, bwMBps, gmean(all)
}
