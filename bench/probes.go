package main

import (
	"fmt"
	"runtime"
	"time"

	"mpichmad/internal/adi"
	"mpichmad/internal/cluster"
	"mpichmad/internal/experiments"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/route"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// A probe times calls into one layer's public functions with nothing
// else running: what a layer costs by itself, beside what the workloads
// say it costs in company. body runs n operations and returns the host
// time they took (set-up it does not want counted stays outside).
type probe struct {
	name   string // the ns (or derived) metric
	allocs string // optional: the allocs/op metric read off the same run
	per    int    // operations per reported unit (2: a round trip is two messages)
	body   func(n int) (time.Duration, error)
}

// measure grows n until one run of body lasts at least half the budget,
// the way testing.B does, and reports that run.
func measure(budget time.Duration, body func(n int) (time.Duration, error)) (nsPerOp, mallocsPerOp float64, err error) {
	n := 1
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := body(n)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m1)
		if d >= budget/2 || n >= 1<<28 {
			return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
		}
		grow := 16.0
		if d > 0 {
			if g := 1.2 * float64(budget) / float64(d); g < grow {
				grow = g
			}
		}
		n = int(float64(n)*grow) + 1
	}
}

// runProbes runs every probe for about budget each and returns the
// per-layer metrics they yield.
func runProbes(budget time.Duration, spans *recorder) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range probes {
		sp := spans.begin("probe:" + p.name)
		ns, mallocs, err := measure(budget, p.body)
		spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = ns
		if p.allocs != "" {
			out[p.allocs] = mallocs / float64(max(p.per, 1))
		}
		runtime.GC()
	}
	// Throughputs: bytes moved per call over ns per call is GB/s.
	for name, bytes := range map[string]float64{
		"mpi.pack_contig_GBps":   contigBytes,
		"mpi.unpack_contig_GBps": contigBytes,
		"mpi.pack_vector_GBps":   haloBytes,
		"mpi.unpack_vector_GBps": haloBytes,
		"mpi.reduce_f64_GBps":    reduceCount * 8,
	} {
		out[name] = bytes / out[name]
	}
	for _, name := range []string{"route.plan256_us", "route.plan1024_us", "route.resolve1024_us"} {
		out[name] /= 1e3
	}
	for _, name := range []string{"cluster.build9_ms", "cluster.build1024_ms"} {
		out[name] /= 1e6
	}
	// Self time of ch_mad + adi + mpi per 4-byte round trip: the whole
	// stack minus the Madeleine round trip underneath it.
	out["core.overhead4B_host_ns"] = out["core.eager4B_ns"] - out["madeleine.roundtrip4B_ns"]
	return out, nil
}

const contigBytes = 1 << 20

var nilTracer *trace.Tracer // a variable, so the nil check is not compiled away

var probes = []probe{
	{name: "vtime.sleep_wake_ns", allocs: "vtime.sleep_allocs", body: func(n int) (time.Duration, error) {
		s := vtime.New()
		s.Go("main", func() {
			for i := 0; i < n; i++ {
				s.Sleep(vtime.Microsecond)
			}
		})
		return timed(s.Run)
	}},
	{name: "vtime.sem_handoff_ns", body: func(n int) (time.Duration, error) {
		s := vtime.New()
		sem := vtime.NewSem(s, "cpu", 1)
		for w := 0; w < 4; w++ {
			s.Go("worker", func() {
				for i := 0; i < (n+3)/4; i++ {
					sem.Acquire()
					s.Sleep(vtime.Nanosecond)
					sem.Release()
				}
			})
		}
		return timed(s.Run)
	}},
	{name: "vtime.spawn_join_ns", body: func(n int) (time.Duration, error) {
		s := vtime.New()
		s.Go("main", func() {
			for i := 0; i < n; i++ {
				ev := vtime.NewEvent(s, "done")
				s.Go("child", func() { ev.Fire() })
				ev.Wait()
			}
		})
		return timed(s.Run)
	}},
	{name: "vtime.timer_cb_ns", body: func(n int) (time.Duration, error) {
		// A chain of callbacks, each arming the next: timer dispatch with
		// no task switch and a heap one entry deep.
		s := vtime.New()
		s.Go("main", func() {
			done := vtime.NewEvent(s, "done")
			left := n
			var tick func()
			tick = func() {
				if left--; left > 0 {
					s.After(vtime.Microsecond, tick)
				} else {
					done.Fire()
				}
			}
			s.After(vtime.Microsecond, tick)
			done.Wait()
		})
		return timed(s.Run)
	}},
	{name: "netsim.send_ns", allocs: "netsim.send_allocs", body: func(n int) (time.Duration, error) {
		return wireBounce(netsim.SCISISCI(), n)
	}},
	{name: "netsim.send_trunk_ns", body: func(n int) (time.Duration, error) {
		capped := netsim.FastEthernetTCP()
		capped.NetworkBandwidth = capped.Bandwidth
		return wireBounce(capped, n)
	}},
	{name: "madeleine.roundtrip4B_ns", allocs: "madeleine.msg_allocs", per: 2, body: func(n int) (time.Duration, error) {
		return rawRoundTrips(4, n)
	}},
	{name: "madeleine.roundtrip64K_ns", body: func(n int) (time.Duration, error) {
		return rawRoundTrips(64<<10, n)
	}},
	{name: "core.eager4B_ns", allocs: "core.msg_allocs", per: 2, body: func(n int) (time.Duration, error) {
		return mpiRoundTrips(cluster.TwoNodes("sisci"), 1, 4, n)
	}},
	{name: "core.rndv64K_ns", body: func(n int) (time.Duration, error) {
		return mpiRoundTrips(cluster.TwoNodes("sisci"), 1, 64<<10, n)
	}},
	{name: "core.relay64K_ns", body: func(n int) (time.Duration, error) {
		// a0 <-> c2 with only two of the triangle's bridges: every body
		// crosses both gateways of the b island, forwarded.
		topo := triangleTopo()
		topo.Networks = topo.Networks[:5]
		return mpiRoundTrips(topo, 8, 64<<10, n)
	}},
	{name: "adi.match_depth1_ns", body: func(n int) (time.Duration, error) { return matchPosted(0, n) }},
	{name: "adi.match_depth1024_ns", body: func(n int) (time.Duration, error) { return matchPosted(1024, n) }},
	{name: "adi.unexpected_depth1024_ns", body: func(n int) (time.Duration, error) {
		eng := adi.NewEngine(marcel.NewProc(vtime.New(), "p"), 0)
		for i := 0; i < 1024; i++ {
			eng.AddUnexpected(adi.Envelope{Src: 1, Tag: 1000 + i}, func(*adi.RecvReq) {})
		}
		rr := &adi.RecvReq{Src: 1, Tag: 1}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.AddUnexpected(adi.Envelope{Src: 1, Tag: 1}, func(*adi.RecvReq) {})
			eng.PostRecv(rr)
		}
		return time.Since(t0), nil
	}},
	{name: "mpi.pack_contig_GBps", body: func(n int) (time.Duration, error) {
		buf := make([]byte, contigBytes)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink = mpi.PackBuf(buf, contigBytes, mpi.Byte)
		}
		return time.Since(t0), nil
	}},
	{name: "mpi.unpack_contig_GBps", body: func(n int) (time.Duration, error) {
		buf, src := make([]byte, contigBytes), make([]byte, contigBytes)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			mpi.UnpackBuf(buf, contigBytes, mpi.Byte, src)
		}
		return time.Since(t0), nil
	}},
	{name: "mpi.pack_vector_GBps", body: func(n int) (time.Duration, error) {
		column := mpi.Vector(gridSide, 1, gridSide, mpi.Float64)
		grid := make([]byte, gridSide*gridSide*8)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink = mpi.PackBuf(grid, 1, column)
		}
		return time.Since(t0), nil
	}},
	{name: "mpi.unpack_vector_GBps", body: func(n int) (time.Duration, error) {
		column := mpi.Vector(gridSide, 1, gridSide, mpi.Float64)
		grid, src := make([]byte, gridSide*gridSide*8), make([]byte, haloBytes)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			mpi.UnpackBuf(grid, 1, column, src)
		}
		return time.Since(t0), nil
	}},
	{name: "mpi.reduce_f64_GBps", body: func(n int) (time.Duration, error) {
		dst, src := make([]byte, reduceCount*8), make([]byte, reduceCount*8)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := mpi.OpSum.Apply(dst, src, reduceCount, mpi.Float64); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}},
	{name: "route.plan256_us", body: func(n int) (time.Duration, error) { return planAll(16, n) }},
	{name: "route.plan1024_us", body: func(n int) (time.Duration, error) { return planAll(64, n) }},
	{name: "route.resolve1024_us", body: func(n int) (time.Duration, error) {
		// Every destination's path from one interior rank, on a plan whose
		// quotient trees are already built: resolution alone.
		plan := route.ComputeOpts(scaleGraph(64, 16), route.Options{})
		resolve := func() error {
			for dst := 0; dst < plan.N(); dst++ {
				if _, ok := plan.Path(1, dst); !ok && dst != 1 {
					return fmt.Errorf("rank 1 cannot reach rank %d", dst)
				}
			}
			return nil
		}
		if err := resolve(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := resolve(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}},
	{name: "cluster.build9_ms", body: func(n int) (time.Duration, error) { return buildOnly(triangleTopo(), n) }},
	{name: "cluster.build1024_ms", body: func(n int) (time.Duration, error) {
		return buildOnly(experiments.ScaleTopo(64, 16), n)
	}},
	{name: "trace.span_ns", body: func(n int) (time.Duration, error) {
		// A fresh tracer every 100000 spans: the event log is kept in
		// memory and would otherwise grow with n.
		t0 := time.Now()
		for done := 0; done < n; {
			tr := trace.New(nil)
			for k := 0; k < 100000 && done < n; k, done = k+1, done+1 {
				tr.Span(0, trace.KPkt, "probe", 0, trace.Args{Bytes: 4})
			}
		}
		return time.Since(t0), nil
	}},
	{name: "trace.nil_span_ns", body: func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			nilTracer.Span(0, trace.KPkt, "probe", 0, trace.Args{Bytes: 4})
		}
		return time.Since(t0), nil
	}},
}

var sink []byte // keeps results alive so the calls are not optimised out

func timed(run func() error) (time.Duration, error) {
	t0 := time.Now()
	err := run()
	return time.Since(t0), err
}

// wireBounce bounces one small packet n times between two endpoints from
// inside the delivery callbacks: Endpoint.Send plus the timer that
// delivers it, with no task switch.
func wireBounce(params netsim.Params, n int) (time.Duration, error) {
	s := vtime.New()
	net := netsim.NewNetwork(s, "probe", params)
	a, b := net.Attach("a"), net.Attach("b")
	var sendErr error
	s.Go("main", func() {
		done := vtime.NewEvent(s, "done")
		left := n
		bounce := func(from *netsim.Endpoint, to string) func(*netsim.Packet) {
			return func(pkt *netsim.Packet) {
				if left--; left <= 0 || sendErr != nil {
					done.Fire()
					return
				}
				pkt.Dst = to
				sendErr = from.Send(pkt)
			}
		}
		a.OnDeliver = bounce(a, "b")
		b.OnDeliver = bounce(b, "a")
		sendErr = a.Send(&netsim.Packet{Dst: "b", Header: make([]byte, 16)})
		if sendErr == nil {
			done.Wait()
		}
	})
	d, err := timed(s.Run)
	if err == nil {
		err = sendErr
	}
	return d, err
}

// rawRoundTrips is n Madeleine round trips of size bytes over SCI.
func rawRoundTrips(size, n int) (time.Duration, error) {
	s := vtime.New()
	net := netsim.NewNetwork(s, "sci", netsim.SCISISCI())
	pa, pb := marcel.NewProc(s, "a"), marcel.NewProc(s, "b")
	chA, err := madeleine.New(pa).NewChannel("ch", net)
	if err != nil {
		return 0, err
	}
	chB, err := madeleine.New(pb).NewChannel("ch", net)
	if err != nil {
		return 0, err
	}
	var sideErr error
	side := func(ch *madeleine.Channel, peer string, lead bool) func() {
		buf := make([]byte, size)
		return func() {
			for i := 0; i < n && sideErr == nil; i++ {
				if lead {
					if sideErr = rawSend(ch, peer, buf); sideErr == nil {
						sideErr = rawRecv(ch, buf)
					}
				} else if sideErr = rawRecv(ch, buf); sideErr == nil {
					sideErr = rawSend(ch, peer, buf)
				}
			}
		}
	}
	pa.Spawn("ping", side(chA, "b", true))
	pb.Spawn("pong", side(chB, "a", false))
	d, err := timed(s.Run)
	if err == nil {
		err = sideErr
	}
	return d, err
}

// mpiRoundTrips is n MPI_Send/MPI_Recv round trips of size bytes between
// rank 0 and rank peer of topo, timed on rank 0 from the first barrier.
func mpiRoundTrips(topo cluster.Topology, peer, size, n int) (time.Duration, error) {
	sess, err := cluster.Build(topo)
	if err != nil {
		return 0, err
	}
	var elapsed time.Duration
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank != 0 && rank != peer {
			return nil
		}
		buf := make([]byte, size)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if rank == 0 {
				if err := comm.Send(buf, size, mpi.Byte, peer, 0); err != nil {
					return err
				}
				if _, err := comm.Recv(buf, size, mpi.Byte, peer, 0); err != nil {
					return err
				}
			} else {
				if _, err := comm.Recv(buf, size, mpi.Byte, 0, 0); err != nil {
					return err
				}
				if err := comm.Send(buf, size, mpi.Byte, 0, 0); err != nil {
					return err
				}
			}
		}
		if rank == 0 {
			elapsed = time.Since(t0)
		}
		return nil
	})
	return elapsed, err
}

// matchPosted times PostRecv + MatchPosted behind depth posted receives
// that never match.
func matchPosted(depth, n int) (time.Duration, error) {
	eng := adi.NewEngine(marcel.NewProc(vtime.New(), "p"), 0)
	for i := 0; i < depth; i++ {
		eng.PostRecv(&adi.RecvReq{Src: 1, Tag: 1000 + i})
	}
	rr := &adi.RecvReq{Src: 1, Tag: 1}
	env := adi.Envelope{Src: 1, Tag: 1}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.PostRecv(rr)
		if eng.MatchPosted(env) != rr {
			return 0, fmt.Errorf("posted receive not matched at depth %d", depth)
		}
	}
	return time.Since(t0), nil
}

// scaleGraph is the routing graph of experiments.ScaleTopo: nClusters
// SCI islands of perCluster ranks, the first rank of each on one capped
// TCP trunk.
func scaleGraph(nClusters, perCluster int) route.Graph {
	g := route.Graph{Nets: make(map[string]netsim.Params)}
	bb := netsim.FastEthernetTCP()
	bb.NetworkBandwidth = bb.Bandwidth
	g.Nets["bb"] = bb
	for c := 0; c < nClusters; c++ {
		fabric := fmt.Sprintf("cl%03d", c)
		g.Nets[fabric] = netsim.SCISISCI()
		for m := 0; m < perCluster; m++ {
			nets := []string{fabric}
			if m == 0 {
				nets = append(nets, "bb")
			}
			g.NetsOf = append(g.NetsOf, nets)
			g.N++
		}
	}
	return g
}

// planAll computes a plan n times and asks it for the cost between every
// pair of blocs, which builds every quotient tree: the planning a session
// of that shape drives.
func planAll(nClusters, n int) (time.Duration, error) {
	g := scaleGraph(nClusters, 16)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		plan := route.ComputeOpts(g, route.Options{})
		for a := 0; a < plan.BlocCount(); a++ {
			for b := 0; b < plan.BlocCount(); b++ {
				if a == b {
					continue
				}
				if _, ok := plan.Cost(plan.BlocMembers(a)[0], plan.BlocMembers(b)[0]); !ok {
					return 0, fmt.Errorf("bloc %d cannot reach bloc %d", a, b)
				}
			}
		}
	}
	return time.Since(t0), nil
}

// buildOnly times cluster.Build alone. Build starts the devices' polling
// tasks, each a parked goroutine; running the scheduler with no rank
// program releases them at once, outside the timed part.
func buildOnly(topo cluster.Topology, n int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sess, err := cluster.Build(topo)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := sess.S.Run(); err != nil {
			return 0, err
		}
	}
	return total, nil
}
