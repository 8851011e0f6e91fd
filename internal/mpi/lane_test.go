package mpi_test

// The schedule executor's second send lane: what it overlaps, how a failure
// on it ends a schedule, and a laned collective left pending across other
// traffic.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// laneRound runs one round on three SCI nodes in which rank 0 sends n bytes
// to rank 1 and n bytes to rank 2, the second send plain or on the second
// lane, and returns the time the round took on rank 0's clock.
func laneRound(t *testing.T, n int, first, second mpi.Step) vtime.Duration {
	t.Helper()
	var took vtime.Duration
	sess, err := cluster.Build(nNodeTopo(3, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		start := sess.S.Now()
		if rank > 0 {
			got := make([]byte, n)
			if err := c.StartRounds("lane", 0, [][]mpi.Step{{{Recv: true, Peer: 0, Buf: got}}}).Wait(); err != nil {
				return err
			}
			if !bytes.Equal(got, fpFill(rank, n)) {
				return fmt.Errorf("rank %d received the wrong bytes", rank)
			}
			return nil
		}
		first.Peer, first.Buf, second.Peer, second.Buf = 1, fpFill(1, n), 2, fpFill(2, n)
		err := c.StartRounds("lane", 0, [][]mpi.Step{{first, second}}).Wait()
		took = sess.S.Now().Sub(start)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return took
}

// TestLaneSendsBesideLaneZero: a send on the second lane is injected while
// the round's plain send still drains — two 256 KiB bodies to two peers
// take about the time of one — and a round whose sends are all marked for
// the second lane is a round of plain sends, to the nanosecond.
func TestLaneSendsBesideLaneZero(t *testing.T) {
	const n = 256 << 10
	plain := laneRound(t, n, mpi.Step{}, mpi.Step{})
	laned := laneRound(t, n, mpi.Step{}, mpi.Step{Aside: true})
	if laned > plain*6/10 {
		t.Errorf("two sends on two lanes took %v, one after the other %v: want about half", laned, plain)
	}
	if aside := laneRound(t, n, mpi.Step{Aside: true}, mpi.Step{Aside: true}); aside != plain {
		t.Errorf("a round with nothing on lane 0 took %v, the same sends unmarked %v", aside, plain)
	}
}

// TestLaneErrorEndsTheSchedule: a send that fails — an unroutable peer — ends
// the schedule with its error whichever lane it was on, and when both fail;
// the staging stays out exactly as after a failure on lane 0; no thread is
// left parked that would hold the run or trip the deadline, and the session
// passes the Finalize audit with the lane thread resident.
func TestLaneErrorEndsTheSchedule(t *testing.T) {
	for _, tc := range []struct {
		name        string
		to1, to2    mpi.Step // rank 0's sends to rank 1, which is there, and to rank 2, which is not
		alsoDrop1   bool     // rank 1 is unroutable too
		delivered   bool     // rank 1 gets its message
		sendsBefore bool     // an earlier laned round went through
	}{
		{name: "lane 1 fails", to2: mpi.Step{Aside: true}, delivered: true},
		{name: "lane 0 fails", to1: mpi.Step{Aside: true}, delivered: true},
		{name: "both fail", to2: mpi.Step{Aside: true}, alsoDrop1: true},
		{name: "lane 1 fails in a later round", to2: mpi.Step{Aside: true}, delivered: true, sendsBefore: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const staged = 3
			sess, err := cluster.Build(nNodeTopo(4, "sisci"))
			if err != nil {
				t.Fatal(err)
			}
			rk0 := sess.Ranks[0]
			err = sess.Run(func(rank int, c *mpi.Comm) error {
				side, err := c.Dup()
				if err != nil {
					return err
				}
				gather := prepAllgather(c, 3000)
				if err := gather(); err != nil {
					return err
				}
				msg := fpFill(7, 1<<10)
				switch rank {
				case 0:
					to1, to2 := tc.to1, tc.to2
					to1.Peer, to1.Buf, to2.Peer, to2.Buf = 1, msg, 2, msg
					rounds := [][]mpi.Step{{to1, to2}}
					if tc.sendsBefore {
						rounds = [][]mpi.Step{{{Peer: 1, Buf: msg}, {Aside: true, Peer: 3, Buf: msg}}, rounds[0]}
					}
					r1, r2 := rk0.ChMad.Rails(1), rk0.ChMad.Rails(2)
					rk0.ChMad.SetRails(2, nil)
					if tc.alsoDrop1 {
						rk0.ChMad.SetRails(1, nil)
					}
					err := side.StartRounds("doomed", staged, rounds).Wait()
					rk0.ChMad.SetRails(1, r1)
					rk0.ChMad.SetRails(2, r2)
					if err == nil {
						return errors.New("a schedule with a send over a withdrawn route did not fail")
					}
				case 1, 3:
					// What rank 0 got out before it failed, round by round.
					var rounds [][]mpi.Step
					if tc.sendsBefore {
						rounds = append(rounds, []mpi.Step{{Recv: true, Peer: 0, Buf: make([]byte, len(msg))}})
					}
					if tc.delivered && rank == 1 {
						rounds = append(rounds, []mpi.Step{{Recv: true, Peer: 0, Buf: make([]byte, len(msg))}})
					}
					if len(rounds) == 0 {
						break
					}
					if err := side.StartRounds("doomed", 0, rounds).Wait(); err != nil {
						return err
					}
					for i, rd := range rounds {
						if !bytes.Equal(rd[0].Buf, msg) {
							return fmt.Errorf("message %d to rank %d arrived wrong", i, rank)
						}
					}
				}
				// The world goes on, the failed schedule's staging stays out.
				for i := 0; i < 2; i++ {
					if err := gather(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The session's one list: every other buffer is home by now.
			if out := rk0.MPI.Eng.Bufs.Out(); out != staged {
				t.Errorf("%d buffers out after later collectives, want the failed schedule's %d", out, staged)
			}
		})
	}
}

// TestLaneIcollPendingAcrossTraffic: collectives whose schedules have laned
// rounds — the multi-leader forms at 1 MiB on the bridged triangle — are
// started and left pending while tagged point-to-point traffic crosses the
// communicator, then completed by Wait, in the other order: every rank ends
// with the right bytes and the session with every buffer home.
func TestLaneIcollPendingAcrossTraffic(t *testing.T) {
	sess, err := cluster.Build(triangleTopo())
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(mpi.CollHierMulti)
	}
	const per = 1 << 20 / 9
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		n := c.Size()
		gathered, summed := make([]byte, per*n), make([]byte, per*n)
		ag, err := c.Iallgather(fpFill(rank, per), gathered, per, mpi.Byte)
		if err != nil {
			return err
		}
		ar, err := c.Iallreduce(fpFill(rank, per*n), summed, per*n, mpi.Byte, mpi.OpMax)
		if err != nil {
			return err
		}
		for hop := 1; hop <= 2; hop++ {
			to, from := (rank+hop)%n, (rank+n-hop)%n
			got := make([]byte, 4096)
			if _, err := c.Sendrecv(fpFill(rank+hop, 4096), 4096, mpi.Byte, to, hop, got, 4096, mpi.Byte, from, hop); err != nil {
				return err
			}
			if !bytes.Equal(got, fpFill(from+hop, 4096)) {
				return fmt.Errorf("rank %d hop %d: wrong bytes from %d", rank, hop, from)
			}
		}
		if err := ar.Wait(); err != nil {
			return err
		}
		if err := ag.Wait(); err != nil {
			return err
		}
		want := make([]byte, per*n)
		for r := 0; r < n; r++ {
			if !bytes.Equal(gathered[r*per:(r+1)*per], fpFill(r, per)) {
				return fmt.Errorf("rank %d: block %d of the Allgather is wrong", rank, r)
			}
			for i, v := range fpFill(r, per*n) {
				want[i] = max(want[i], v)
			}
		}
		if !bytes.Equal(summed, want) {
			return fmt.Errorf("rank %d: the Allreduce is wrong", rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every network and rank draws from the session's one list.
	if out := sess.Ranks[0].Eng.Bufs.Out(); out != 0 {
		t.Errorf("%d wire or staging buffers still out at the end of the session", out)
	}
}
