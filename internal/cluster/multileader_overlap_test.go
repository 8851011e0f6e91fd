package cluster

// The multi-leader forms against the bridges' bandwidth bound: how long a
// forced 1 MiB operation takes on the bridged triangle, on the last rank's
// clock, beside what the three 11.2 MB/s bridges need for its bytes — and
// what it may not pay for the overlap: more bridge bytes, a relayed message.

import (
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/mpi"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// mlTriangleOps are the four multi-leader operations at a whole payload of
// 1 MiB (the vector of a Bcast or an Allreduce, the matrix a rank sends in an
// Alltoall, the vector an Allgather ends with), each with the time the
// bridges need for its bytes, the factor of it the form may take (what it
// measures, 1.36 / 1.36 / 1.38 / 1.27, plus 0.05), the most bytes one bridge
// may carry (both directions; the Bcast's over the three) — what it moved
// in 7 KiB chunks — and the roots a rooted form is measured from.
var mlTriangleOps = []struct {
	name        string
	boundMS     float64
	within      float64
	bridgeBytes uint64
	roots       []int
	call        func(comm *mpi.Comm, root int) error
}{
	{"Bcast", 44.6, 1.41, 2113432, []int{0, 4, 8}, func(comm *mpi.Comm, root int) error {
		return comm.Bcast(make([]byte, 1<<20), 1<<20, mpi.Byte, root)
	}},
	{"Allreduce", 59.5, 1.41, 1408892, []int{0}, func(comm *mpi.Comm, _ int) error {
		return comm.Allreduce(make([]byte, 1<<20), make([]byte, 1<<20), 1<<17, mpi.Float64, mpi.OpSum)
	}},
	{"Allgather", 29.8, 1.43, 704438, []int{0}, func(comm *mpi.Comm, _ int) error {
		per := (1 << 20) / comm.Size()
		return comm.Allgather(make([]byte, per), make([]byte, per*comm.Size()), per, mpi.Byte)
	}},
	{"Alltoall", 89.3, 1.32, 2113314, []int{0}, func(comm *mpi.Comm, _ int) error {
		per := (1 << 20) / comm.Size()
		return comm.Alltoall(make([]byte, per*comm.Size()), make([]byte, per*comm.Size()), per, mpi.Byte)
	}},
}

// mlTriangleRun runs op once, after a barrier, on the bridged triangle with
// the multi-leader forms forced and returns the time from the common start
// to the last rank's return, every bridge network's bytes and the messages
// ch_mad devices relayed — the last two net of the same session without the
// operation, which on a deterministic simulator is what the operation cost.
func mlTriangleRun(t *testing.T, tr *trace.Tracer, op func(comm *mpi.Comm) error) (vtime.Duration, map[string]uint64, uint64) {
	t.Helper()
	run := func(op func(comm *mpi.Comm) error) (vtime.Duration, map[string]uint64, uint64) {
		topo := bridgedTriangle()
		topo.Trace = tr
		sess, err := Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range sess.Ranks {
			rk.MPI.SetCollMode(mpi.CollHierMulti)
		}
		var start, end vtime.Time
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			if err := comm.Barrier(); err != nil {
				return err
			}
			if rank == 0 {
				start = sess.S.Now()
			}
			if err := op(comm); err != nil {
				return err
			}
			end = max(end, sess.S.Now())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		loads, forwarded := map[string]uint64{}, uint64(0)
		for name, net := range sess.Networks {
			if net.Params.Protocol == "tcp" {
				loads[name] = net.Stats.Bytes
			}
		}
		for _, rk := range sess.Ranks {
			forwarded += rk.ChMad.NForwarded
		}
		return end.Sub(start), loads, forwarded
	}
	took, loads, forwarded := run(op)
	tr = nil
	_, idle, idleForwarded := run(func(*mpi.Comm) error { return nil })
	for name := range loads {
		loads[name] -= idle[name]
	}
	return took, loads, forwarded - idleForwarded
}

// TestMultiLeaderOverlapsBridgeRounds: at 1 MiB every multi-leader form ends
// within a stated factor of the time the bridges need for its bytes, which it
// can only do by feeding and draining its couples while the bridges are busy;
// and the overlap is free on the wire — no bridge carries more than before
// and no device relays a message.
func TestMultiLeaderOverlapsBridgeRounds(t *testing.T) {
	for _, tc := range mlTriangleOps {
		for _, root := range tc.roots {
			took, loads, forwarded := mlTriangleRun(t, nil, func(comm *mpi.Comm) error { return tc.call(comm, root) })
			ms := took.Seconds() * 1e3
			t.Logf("%s root %d: %.1f ms = %.2f x the bridges' %.1f ms, bridge bytes %v", tc.name, root, ms, ms/tc.boundMS, tc.boundMS, loads)
			if ms > tc.within*tc.boundMS {
				t.Errorf("%s of 1 MiB from %d: %.1f ms on the last rank's clock, want at most %.2f x the bridges' %.1f ms",
					tc.name, root, ms, tc.within, tc.boundMS)
			}
			total := uint64(0)
			for name, b := range loads {
				total += b
				if tc.name != "Bcast" && b > tc.bridgeBytes {
					t.Errorf("%s of 1 MiB: bridge %s carried %d bytes, %d in 7 KiB chunks", tc.name, name, b, tc.bridgeBytes)
				}
			}
			if tc.name == "Bcast" && total > tc.bridgeBytes {
				t.Errorf("Bcast of 1 MiB from %d: the bridges carried %d bytes, %d in 7 KiB chunks", root, total, tc.bridgeBytes)
			}
			if forwarded != 0 {
				t.Errorf("%s of 1 MiB: ch_mad devices relayed %d messages, want 0", tc.name, forwarded)
			}
		}
	}
}

// TestMultiLeaderOverlapIsLegible reads the overlap off one traced run per
// form, from the sched.round and sched.lane spans alone. A co-leader's rounds
// are either bridge rounds — it puts chunks on its bridge — or not; the form's
// time on the last rank's clock is the bridge rounds of the busiest co-leader
// plus what they do not cover, the exposed intra-cluster time; and the time
// that co-leader's second lane was busy inside bridge rounds is intra-cluster
// work the bridge hid. Every laned round has its sched.lane span, inside it
// and with the bytes the round's own annotation names.
func TestMultiLeaderOverlapIsLegible(t *testing.T) {
	for _, tc := range mlTriangleOps {
		tr := trace.New(nil)
		took, _, _ := mlTriangleRun(t, tr, func(comm *mpi.Comm) error { return tc.call(comm, tc.roots[0]) })
		evs := tr.Events()
		// The operation is the session's last schedule but one: Finalize's
		// barrier follows it.
		var seq uint32
		for _, ev := range evs {
			if ev.Name == "sched.round" {
				seq = max(seq, ev.Args.Seq)
			}
		}
		seq--
		cluster := func(rank int32) int32 { return rank / 3 }
		var busiest, hidden vtime.Duration
		laned := 0
		for rank := int32(0); rank < 9; rank++ {
			var bridge, aside vtime.Duration
			for _, rd := range evs {
				if rd.Name != "sched.round" || rd.Track != rank || rd.Args.Seq != seq {
					continue
				}
				in := func(ev trace.Event) bool {
					return ev.Track == rank && ev.TS >= rd.TS && ev.TS.Add(ev.Dur) <= rd.TS.Add(rd.Dur)
				}
				crosses := false
				var lane *trace.Event
				for i, ev := range evs {
					switch {
					case !in(ev):
					case ev.Name == "eager.send" && cluster(ev.Args.Src) != cluster(ev.Args.Dst):
						crosses = true
					case ev.Name == "sched.lane" && ev.Args.Seq == seq:
						if lane != nil {
							t.Errorf("%s: rank %d round %d has two sched.lane spans", tc.name, rank, rd.Args.Val)
						}
						lane = &evs[i]
					}
				}
				if want := strings.Contains(rd.Args.Class, "/1:"); want != (lane != nil) {
					t.Errorf("%s: rank %d round %d: laned by its annotation %v (%s), sched.lane span %v",
						tc.name, rank, rd.Args.Val, want, rd.Args.Class, lane != nil)
				}
				if lane != nil {
					laned++
					if !strings.HasSuffix(rd.Args.Class, fmt.Sprintf("/1:%d", lane.Args.Bytes)) {
						t.Errorf("%s: rank %d round %d names %s on lane 1, its sched.lane span %d bytes",
							tc.name, rank, rd.Args.Val, rd.Args.Class, lane.Args.Bytes)
					}
				}
				if crosses {
					bridge += rd.Dur
					if lane != nil {
						aside += lane.Dur
					}
				}
			}
			if bridge > busiest {
				busiest, hidden = bridge, aside
			}
		}
		exposed := took - busiest
		t.Logf("%-9s %6.1f ms = %5.1f ms of bridge rounds + %4.1f ms exposed intra-cluster; %4.1f ms of intra-cluster sends hidden in bridge rounds, %d laned rounds",
			tc.name, took.Seconds()*1e3, busiest.Seconds()*1e3, exposed.Seconds()*1e3, hidden.Seconds()*1e3, laned)
		if laned == 0 || hidden <= 0 {
			t.Errorf("%s of 1 MiB: no intra-cluster send rode a bridge round's second lane", tc.name)
		}
		if exposed*4 > took {
			t.Errorf("%s of 1 MiB: %v of %v is intra-cluster time no bridge round covers, want under a quarter", tc.name, exposed, took)
		}
	}
}
