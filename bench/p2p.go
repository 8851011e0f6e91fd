package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"mpichmad/internal/cluster"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// p2pPaper is the paper's §5 grid: a 2-rank ping-pong over raw Madeleine
// and over ch_mad on each of the three networks, ch_mad with an idle TCP
// channel beside SCI (Fig. 9), and the ch_p4 baseline on TCP.
type p2pPaper struct {
	sizes  []int
	trips  func(size int) int
	series []p2pSeries // in visiting order
	order  [][]int     // per series, the order its sizes are visited in
	pat    *pattern
}

type p2pSeries struct {
	name  string
	proto string            // raw Madeleine over this protocol when topo is nil
	topo  *cluster.Topology // MPI ping-pong on this topology otherwise
}

var p2pProtocols = []string{"tcp", "sisci", "bip"}

func sciPlusTCP() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "n0", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "n1"}},
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
		},
	}
}

func prepareP2P(seed int64, smoke bool) runner {
	w := &p2pPaper{
		sizes: []int{0, 4, 64, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10,
			256 << 10, 1 << 20, 8 << 20},
		// Many round trips where a message is cheap, few where it is a
		// large memmove: per-message cost carries most of the host time.
		trips: func(size int) int {
			switch {
			case size <= 4<<10:
				return 400
			case size <= 64<<10:
				return 40
			}
			return 4
		},
	}
	if smoke {
		w.sizes = []int{0, 4, 1 << 10, 64 << 10, 8 << 20}
		w.trips = func(size int) int {
			if size <= 64<<10 {
				return 4
			}
			return 1
		}
	}
	var all []p2pSeries
	for _, p := range p2pProtocols {
		all = append(all, p2pSeries{name: "raw_" + p, proto: p})
	}
	for _, p := range p2pProtocols {
		topo := cluster.TwoNodes(p)
		all = append(all, p2pSeries{name: "chmad_" + p, topo: &topo})
	}
	multi := sciPlusTCP()
	all = append(all, p2pSeries{name: "chmad_sisci+tcp", topo: &multi})
	p4 := cluster.TwoNodes("tcp")
	p4.Device = "ch_p4"
	all = append(all, p2pSeries{name: "chp4_tcp", topo: &p4})

	rng := newPRNG(seed, "p2p_paper")
	w.pat = newPattern(rng, w.sizes[len(w.sizes)-1], 2)
	for _, i := range rng.perm(len(all)) {
		w.series = append(w.series, all[i])
		w.order = append(w.order, rng.perm(len(w.sizes)))
	}
	return w
}

func (w *p2pPaper) repetition(r *rep) error {
	for si, s := range w.series {
		var err error
		if s.topo == nil {
			err = w.rawSession(r, s, w.order[si])
		} else {
			err = w.mpiSession(r, s, w.order[si])
		}
		if err != nil {
			return err
		}
	}
	w.paperOps(r)
	return nil
}

// mpiSession is one ping-pong session through MPI_Send/MPI_Recv. Both
// sides check what they receive; a round trip is one operation.
func (w *p2pPaper) mpiSession(r *rep, s p2pSeries, order []int) error {
	var far string // what rank 1 saw wrong in the current round trip
	return r.session(s.name, *s.topo, func(sess *cluster.Session, rank int, comm *mpi.Comm) error {
		for _, k := range order {
			size := w.sizes[k]
			recv := make([]byte, size)
			err := r.batch(sess, rank, comm, s.name, size, w.trips(size), func(i int) error {
				r.mpiOps += 2
				if rank == 0 {
					if err := comm.Send(w.pat.window(i, 0, size), size, mpi.Byte, 1, 0); err != nil {
						return err
					}
					if _, err := comm.Recv(recv, size, mpi.Byte, 1, 0); err != nil {
						return err
					}
					why := r.check("pong", recv, w.pat.window(i, 1, size))
					if far != "" {
						why, far = far, ""
					}
					r.op(why)
					return nil
				}
				if _, err := comm.Recv(recv, size, mpi.Byte, 0, 0); err != nil {
					return err
				}
				far = r.check("ping", recv, w.pat.window(i, 0, size))
				return comm.Send(w.pat.window(i, 1, size), size, mpi.Byte, 0, 0)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// rawSession is the same ping-pong on the bare Madeleine library: one
// pack and one unpack per message, no MPI, no device, no polling thread
// (the raw_Madeleine curves of Fig. 6-8). There is no MPI_Init, so the
// set-up it contributes is the wiring alone.
func (w *p2pPaper) rawSession(r *rep, s p2pSeries, order []int) error {
	whole := r.spans.begin("session:" + s.name)
	defer r.spans.end(whole)
	t0 := time.Now()
	params, ok := netsim.ByProtocol(s.proto)
	if !ok {
		return fmt.Errorf("%s: unknown protocol", s.name)
	}
	sched := vtime.New()
	sched.SetDeadline(vtime.Time(500 * vtime.Second))
	net := netsim.NewNetwork(sched, params.Network, params)
	pa, pb := marcel.NewProc(sched, "a"), marcel.NewProc(sched, "b")
	chA, err := madeleine.New(pa).NewChannel("raw", net)
	if err != nil {
		return err
	}
	chB, err := madeleine.New(pb).NewChannel("raw", net)
	if err != nil {
		return err
	}
	var sideErr error
	var far string
	side := func(ch *madeleine.Channel, peer string, me int) func() {
		return func() {
			for _, k := range order {
				size := w.sizes[k]
				n := w.trips(size)
				recv := make([]byte, size)
				sp := -1
				if me == 0 {
					sp = r.spans.begin(fmt.Sprintf("batch:%s/%d", s.name, size))
				}
				start := sched.Now()
				for i := 0; i < n && sideErr == nil; i++ {
					if me == 0 {
						if sideErr = rawSend(ch, peer, w.pat.window(i, 0, size)); sideErr != nil {
							break
						}
						if sideErr = rawRecv(ch, recv); sideErr != nil {
							break
						}
						why := r.check("pong", recv, w.pat.window(i, 1, size))
						if far != "" {
							why, far = far, ""
						}
						r.op(why)
					} else {
						if sideErr = rawRecv(ch, recv); sideErr != nil {
							break
						}
						far = r.check("ping", recv, w.pat.window(i, 0, size))
						sideErr = rawSend(ch, peer, w.pat.window(i, 1, size))
					}
				}
				if me == 0 {
					r.add(s.name, size, sched.Now().Sub(start)/vtime.Duration(n))
					r.spans.end(sp)
				}
			}
		}
	}
	pa.Spawn("ping", side(chA, "b", 0))
	pb.Spawn("pong", side(chB, "a", 1))
	built := time.Now()
	sp := r.spans.begin("Scheduler.Run")
	err = sched.Run()
	r.spans.end(sp)
	if err == nil {
		err = sideErr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	r.build += built.Sub(t0)
	r.measured += time.Since(built)
	r.sessions++
	r.collectNet(net)
	r.counts["madeleine.messages"] += float64(chA.Messages + chB.Messages)
	r.counts["cluster.ranks"] = math.Max(r.counts["cluster.ranks"], 2)
	r.counts["stack.rank_virt_ms"] += 2 * float64(sched.Now())
	return nil
}

func rawSend(ch *madeleine.Channel, peer string, buf []byte) error {
	conn, err := ch.BeginPacking(peer)
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := conn.Pack(buf, madeleine.SendCheaper, madeleine.ReceiveCheaper); err != nil {
			return err
		}
	}
	return conn.EndPacking()
}

func rawRecv(ch *madeleine.Channel, buf []byte) error {
	conn, err := ch.BeginUnpacking()
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := conn.Unpack(buf, madeleine.SendCheaper, madeleine.ReceiveCheaper); err != nil {
			return err
		}
	}
	return conn.EndUnpacking()
}

// oneWay is what the paper reports: half the round trip a batch times.
func oneWay(p point) vtime.Duration { return p.PerOp / 2 }

// paperFigure is one number the paper states and the repository's own
// tests pin, with the tolerance those tests use (madeleine_test.go
// TestTable1*, chmad_test.go TestTable2*).
type paperFigure struct {
	series    string
	size      int
	bandwidth bool // MB/s instead of µs
	want      float64
	tolPct    float64
}

var paperFigures = []paperFigure{
	{"raw_tcp", 4, false, 121, 5},
	{"raw_sisci", 4, false, 4.4, 12},
	{"raw_bip", 4, false, 9.2, 8},
	{"raw_tcp", 8 << 20, true, 11.2, 3},
	{"raw_sisci", 8 << 20, true, 82.6, 3},
	{"raw_bip", 8 << 20, true, 122, 3},
	{"chmad_tcp", 0, false, 130, 5},
	{"chmad_tcp", 4, false, 148.7, 5},
	{"chmad_sisci", 0, false, 13, 8},
	{"chmad_sisci", 4, false, 20, 8},
	{"chmad_bip", 0, false, 16.9, 10},
	{"chmad_bip", 4, false, 18.9, 12},
	{"chmad_tcp", 8 << 20, true, 11.2, 3},
	{"chmad_sisci", 8 << 20, true, 82.5, 3},
	{"chmad_bip", 8 << 20, true, 115, 8},
}

func usOf(d vtime.Duration) float64 { return d.Micros() }

func mbpsOf(size int, d vtime.Duration) float64 {
	return float64(size) / d.Seconds() / netsim.MB
}

// paperOps counts each pinned figure as one operation that fails when the
// simulated value leaves its tolerance, and records the decomposition the
// paper argues from: raw Madeleine, ch_mad's cost on top of it, and the
// cost of a second protocol's polling thread.
func (w *p2pPaper) paperOps(r *rep) {
	at := make(map[string]vtime.Duration, len(r.points))
	for _, p := range r.points {
		at[fmt.Sprintf("%s/%d", p.Series, p.Size)] = oneWay(p)
	}
	lat := func(series string) float64 { return usOf(at[series+"/4"]) }
	bw := func(series string) float64 { return mbpsOf(8<<20, at[fmt.Sprintf("%s/%d", series, 8<<20)]) }

	worst := 0.0
	for _, f := range paperFigures {
		d, ok := at[fmt.Sprintf("%s/%d", f.series, f.size)]
		if !ok || d <= 0 {
			r.op(fmt.Sprintf("paper figure %s/%d was not measured", f.series, f.size))
			continue
		}
		got := usOf(d)
		if f.bandwidth {
			got = mbpsOf(f.size, d)
		}
		errPct := math.Abs(got-f.want) / f.want * 100
		worst = math.Max(worst, errPct/f.tolPct)
		r.counts["netsim.paper_err_max_pct"] = math.Max(r.counts["netsim.paper_err_max_pct"], errPct)
		why := ""
		if errPct > f.tolPct {
			why = fmt.Sprintf("%s/%d: simulated %.3f, paper %.3f, off by %.1f%% (tolerance %.0f%%)",
				f.series, f.size, got, f.want, errPct, f.tolPct)
		}
		r.op(why)
	}
	for _, p := range p2pProtocols {
		r.counts["madeleine.lat4B_"+p+"_us"] = lat("raw_" + p)
		r.counts["madeleine.bw8M_"+p+"_MBps"] = bw("raw_" + p)
		r.counts["core.overhead4B_"+p+"_us"] = lat("chmad_"+p) - lat("raw_"+p)
		r.counts["core.bw8M_ratio_"+p] = bw("chmad_"+p) / bw("raw_"+p)
	}
	r.counts["core.multiproto_gap4B_us"] = lat("chmad_sisci+tcp") - lat("chmad_sisci")
}

// paperMetricNames lists the per-layer metrics paperOps yields.
func paperMetricNames() []string {
	names := []string{"core.multiproto_gap4B_us", "netsim.paper_err_max_pct"}
	for _, p := range p2pProtocols {
		names = append(names, "madeleine.lat4B_"+p+"_us", "madeleine.bw8M_"+p+"_MBps",
			"core.overhead4B_"+p+"_us", "core.bw8M_ratio_"+p)
	}
	return names
}

func (w *p2pPaper) autotuned() *cluster.Topology { return nil }

func (w *p2pPaper) headline(r *rep) (latUS, bwMBps, opGmeanUS float64) {
	var lats, bws, all []float64
	for _, p := range r.points {
		d := oneWay(p)
		all = append(all, usOf(d))
		if strings.HasPrefix(p.Series, "chmad_") {
			switch p.Size {
			case 4:
				lats = append(lats, usOf(d))
			case 8 << 20:
				bws = append(bws, mbpsOf(p.Size, d))
			}
		}
	}
	return gmean(lats), gmean(bws), gmean(all)
}
