package experiments

// The adaptive multi-path experiment (X5 variant, id "adaptive"): the
// bridged triangle. Adding the triangle's third side — a direct TCP
// bridge between islands A and C — gives every A<->C pair two
// edge-disjoint rails, which exercises everything the multi-path
// transport added on top of PR 4's single-path planner:
//
//   - Relay_stripe vs Relay_single: a large inter-cluster rendez-vous
//     body striped cost-weighted round-robin across both rails versus
//     the single-path pipelined relay (MaxPaths: 1, the PR-4 baseline).
//     The acceptance bar is >= 1.5x at 64 KiB.
//   - Adapt_adaptive vs Adapt_static: with the gwCA bridge artificially
//     loaded by an in-flight bulk transfer, a session that calls
//     Session.Replan routes the measured transfer around the hot
//     gateway (island-B detour) instead of queueing behind it; the
//     AdaptQ_* series record the hot gateway's relay-queue high-water
//     during the measured window.
//   - RelayQPeakMax: the deepest store-and-forward queue any gateway
//     reached, which the credit window must bound.

import (
	"fmt"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// triangleTopo is gatewayTopo plus the third side: ranks a0..c2 = 0..8,
// bridges a2-b1 (gwAB), b2-c1 (gwBC) and a1-c0 (gwCA). The a0 -> c2
// rails are a0-a1-c0-c2 (one bridge) and a0-a2-b1-b2-c1-c2 (two).
func triangleTopo() cluster.Topology {
	topo := gatewayTopo()
	topo.Networks = append(topo.Networks, cluster.NetworkSpec{
		Name: "gwCA", Protocol: "tcp", Nodes: []string{"a1", "c0"},
	})
	return topo
}

// adaptiveRelayWindow is the gateway queue bound the X5-variant sessions
// run under; the RelayQWindow series records it and the claims ledger holds
// RelayQPeakMax within it.
const adaptiveRelayWindow = 16

// stripePingPong measures the one-way 0<->8 transfer time on the
// triangle and the deepest gateway queue the session saw. maxPaths: 1 is
// the single-path pipelined baseline, 2 the striped transport.
func stripePingPong(size, maxPaths int) (oneWay vtime.Duration, qPeak int, err error) {
	topo := triangleTopo()
	topo.MaxPaths = maxPaths
	topo.RelayWindow = adaptiveRelayWindow
	sess, err := cluster.Build(topo)
	if err != nil {
		return 0, 0, err
	}
	oneWay, err = pingPong(sess, 0, 8, size)
	if err != nil {
		return 0, 0, err
	}
	for _, rs := range sess.RelayStats() {
		qPeak = max(qPeak, rs.QueuePeak)
	}
	return oneWay, qPeak, nil
}

// adaptiveRun measures one loaded transfer: rank 2 launches an in-flight
// 64 KiB bulk send through the gwCA rail (a2 -> a1 -> c0 -> c1), and
// while its segment backlog drains through gateway a1, rank 0 sends the
// measured payload to rank 8. adaptive == true re-plans first — the
// observed queue pressure at a1/c0 steers the measured transfer onto the
// island-B rails — while the static plan queues behind the backlog.
// Striping is disabled so the comparison isolates re-routing. Returns
// the measured transfer time (send start to receive completion) and the
// hot gateway's queue high-water during that window. It reads the clock
// itself where every other experiment goes through completion or pingPong:
// the interval runs from one rank's send to another rank's receive, once,
// with a re-plan between the barrier and the send.
//
// Replan's contract is a quiescent collective boundary: no rank may be
// compiling a collective while the hierarchy is re-elected. The opening
// Barrier aligns everyone, rank 0 re-plans 2 ms after it, and every
// other rank sleeps well past that point before returning to the
// Finalize barrier — only the load transfer is (deliberately) in flight
// across the re-plan, which is safe because an in-flight segment train
// keeps the route it captured at its rendez-vous.
func adaptiveRun(size int, adaptive bool) (xfer vtime.Duration, hotPeak int, err error) {
	const floodSize = 64 << 10
	topo := triangleTopo()
	// Deeper window than the stripe runs: the load's standing backlog
	// must stay below the bound, so the hot gateway's queue depth can
	// show the measured transfer routing through vs around it.
	topo.RelayWindow = 2 * adaptiveRelayWindow
	sess, err := cluster.Build(topo)
	if err != nil {
		return 0, 0, err
	}
	for _, rk := range sess.Ranks {
		rk.ChMad.RelayStriping = false
	}
	hot := sess.Ranks[1].ChMad // a1, the gwCA gateway the load drains through
	var start, done vtime.Time
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		hold := func() { sess.Ranks[rank].Proc.Sleep(100 * vtime.Millisecond) }
		switch rank {
		case 2:
			// The artificial load: one bulk transfer whose pipelined
			// segments are in flight (and keep their original gwCA route)
			// for the whole measured window.
			if err := comm.Send(make([]byte, floodSize), floodSize, mpi.Byte, 7, 5); err != nil {
				return err
			}
			hold()
		case 7:
			if _, err := comm.Recv(make([]byte, floodSize), floodSize, mpi.Byte, 2, 5); err != nil {
				return err
			}
			hold()
		case 0:
			// Let the load's backlog build at a1, then (adaptive only)
			// close the loop at the collective boundary.
			sess.Ranks[0].Proc.Sleep(2 * vtime.Millisecond)
			if adaptive {
				sess.Replan()
			}
			hot.TakeRelayHigh() // open the measured window
			start = sess.S.Now()
			if err := comm.Send(make([]byte, size), size, mpi.Byte, 8, 1); err != nil {
				return err
			}
			hold()
		case 8:
			if _, err := comm.Recv(make([]byte, size), size, mpi.Byte, 0, 1); err != nil {
				return err
			}
			done = sess.S.Now()
			hotPeak = hot.TakeRelayHigh() // close the measured window
		default:
			// Stay clear of the Finalize barrier until the re-plan and
			// the measurement are over.
			hold()
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return done.Sub(start), hotPeak, nil
}

// adaptiveMultipath (X5 variant) benchmarks the multi-path transport on
// the bridged triangle: two-rail striping against the single-path
// pipelined relay, adaptive re-routing around a loaded bridge against
// the static plan, and the bounded gateway queues — the three remaining
// transport criteria, all rows of the claims ledger (claims_test.go).
func adaptiveMultipath() (*Result, error) {
	stripeSizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}
	stripe := &stats.Series{Name: "Relay_stripe"}
	single := &stats.Series{Name: "Relay_single"}
	qmax := &stats.Series{Name: "RelayQPeakMax"}
	// The configured credit window, recorded alongside the peaks so the
	// ledger's cap row reads the bound the data was generated under rather
	// than a constant of its own.
	qwin := &stats.Series{Name: "RelayQWindow"}
	for _, size := range stripeSizes {
		striped, qs, err := stripePingPong(size, 2)
		if err != nil {
			return nil, fmt.Errorf("stripe %d: %w", size, err)
		}
		solo, q1, err := stripePingPong(size, 1)
		if err != nil {
			return nil, fmt.Errorf("single %d: %w", size, err)
		}
		stripe.Add(size, striped)
		single.Add(size, solo)
		if q1 > qs {
			qs = q1
		}
		// Encoded count, not a time: one queue slot per "microsecond".
		qmax.Add(size, vtime.Duration(qs)*vtime.Microsecond)
		qwin.Add(size, adaptiveRelayWindow*vtime.Microsecond)
	}

	adaptSizes := []int{64 << 10, 256 << 10}
	adapt := &stats.Series{Name: "Adapt_adaptive"}
	static := &stats.Series{Name: "Adapt_static"}
	adaptQ := &stats.Series{Name: "AdaptQ_adaptive"}
	staticQ := &stats.Series{Name: "AdaptQ_static"}
	for _, size := range adaptSizes {
		at, aq, err := adaptiveRun(size, true)
		if err != nil {
			return nil, fmt.Errorf("adaptive %d: %w", size, err)
		}
		st, sq, err := adaptiveRun(size, false)
		if err != nil {
			return nil, fmt.Errorf("static %d: %w", size, err)
		}
		adapt.Add(size, at)
		static.Add(size, st)
		adaptQ.Add(size, vtime.Duration(aq)*vtime.Microsecond)
		staticQ.Add(size, vtime.Duration(sq)*vtime.Microsecond)
	}

	series := []*stats.Series{stripe, single, adapt, static, adaptQ, staticQ, qmax, qwin}
	res := render("adaptive",
		"Extension X5 variant: adaptive multi-path relay on the bridged triangle (third TCP side = second rail)",
		unitTime, series)

	var b strings.Builder
	b.WriteString(res.Text)
	fmt.Fprintf(&b, "\nStripe speedup over single-path pipelined relay (gateway window %d):\n", adaptiveRelayWindow)
	fmt.Fprintf(&b, "%-10s %12s %12s %9s\n", "size", "single(us)", "stripe(us)", "speedup")
	for _, size := range stripeSizes {
		ps, _ := stripe.At(size)
		p1, _ := single.At(size)
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %8.2fx\n",
			stats.SizeLabel(size), p1.LatencyUS(), ps.LatencyUS(), p1.LatencyUS()/ps.LatencyUS())
	}
	b.WriteString("\nAdaptive re-routing around the loaded gwCA bridge (times are the measured\n" +
		"transfer; queue values are gateway a1's depth high-water during it):\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %10s\n", "size", "static(us)", "adapt(us)", "staticQ", "adaptQ")
	for _, size := range adaptSizes {
		st, _ := static.At(size)
		at, _ := adapt.At(size)
		sq, _ := staticQ.At(size)
		aq, _ := adaptQ.At(size)
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %10.0f %10.0f\n",
			stats.SizeLabel(size), st.LatencyUS(), at.LatencyUS(), sq.LatencyUS(), aq.LatencyUS())
	}
	res.Text = b.String()
	return res, nil
}
