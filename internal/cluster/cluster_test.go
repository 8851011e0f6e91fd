package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Topology{}); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := Build(Topology{Nodes: []NodeSpec{{Name: "a", Procs: 0}}}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := Build(Topology{
		Nodes:    []NodeSpec{{Name: "a", Procs: 1}},
		Networks: []NetworkSpec{{Name: "x", Protocol: "warp", Nodes: []string{"a"}}},
	}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Build(Topology{
		Nodes:  []NodeSpec{{Name: "a", Procs: 1}},
		Device: "ch_weird",
	}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := Build(Topology{
		Nodes:  []NodeSpec{{Name: "a", Procs: 1}},
		Device: "ch_p4",
	}); err == nil {
		t.Error("ch_p4 without a network accepted")
	}
	for name, tweak := range map[string]func(*Topology){
		"negative RelayWindow": func(topo *Topology) { topo.RelayWindow = -1 },
		"negative MaxPaths":    func(topo *Topology) { topo.MaxPaths = -1 },
	} {
		topo := TwoNodes("tcp")
		tweak(&topo)
		if _, err := Build(topo); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTwoNodesHelper(t *testing.T) {
	topo := TwoNodes("bip")
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Ranks) != 2 {
		t.Fatalf("ranks = %d", len(sess.Ranks))
	}
	if sess.Ranks[0].ChMad == nil {
		t.Fatal("ch_mad device missing")
	}
	// Elected switch point for a BIP-only config is BIP's 7 KB.
	if got := sess.Ranks[0].ChMad.SwitchPoint(); got != 7<<10 {
		t.Fatalf("switch point = %d", got)
	}
}

func TestSwitchPointElectionInSession(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{{Name: "a", Procs: 1}, {Name: "b", Procs: 1}},
		Networks: []NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"a", "b"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"a", "b"}},
		},
	}
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	// §4.2.2: SCI present -> 8 KB even though Myrinet is also there.
	if got := sess.Ranks[0].ChMad.SwitchPoint(); got != 8<<10 {
		t.Fatalf("elected %d, want 8K", got)
	}
}

func TestRankPlacementAndNaming(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{{Name: "dual", Procs: 2}, {Name: "solo", Procs: 1}},
		Networks: []NetworkSpec{
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"dual", "solo"}},
		},
	}
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Ranks) != 3 {
		t.Fatalf("ranks = %d", len(sess.Ranks))
	}
	if sess.Ranks[0].Node != "dual" || sess.Ranks[2].Node != "solo" {
		t.Fatal("placement wrong")
	}
	if !strings.HasPrefix(sess.Ranks[0].Proc.Name, "dual.p") {
		t.Fatalf("multi-proc naming: %q", sess.Ranks[0].Proc.Name)
	}
	if sess.Ranks[2].Proc.Name != "solo" {
		t.Fatalf("single-proc naming: %q", sess.Ranks[2].Proc.Name)
	}
}

func TestUnroutableWithoutForwarding(t *testing.T) {
	topo := Topology{
		Nodes: []NodeSpec{
			{Name: "a", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "b", Procs: 1},
		},
		Networks: []NetworkSpec{
			{Name: "n1", Protocol: "sisci", Nodes: []string{"a", "gw"}},
			{Name: "n2", Protocol: "bip", Nodes: []string{"gw", "b"}},
		},
		// Forwarding off: a cannot reach b.
	}
	err := func() error {
		sess, err := Build(topo)
		if err != nil {
			return err
		}
		return sess.Run(func(rank int, comm *mpi.Comm) error {
			if rank == 0 {
				return comm.Send([]byte{1}, 1, mpi.Byte, 2, 0)
			}
			if rank == 2 {
				_, err := comm.Recv(make([]byte, 1), 1, mpi.Byte, 0, 0)
				return err
			}
			return nil
		})
	}()
	if err == nil {
		t.Fatal("unroutable send should fail the session")
	}
}

func TestRankErrorPropagates(t *testing.T) {
	_, err := Launch(TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		if rank == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestParamsOverride(t *testing.T) {
	custom := netsim.SCISISCI()
	custom.WireLatency = 0 // unrealistically fast, to prove the override took
	topo := TwoNodes("sisci")
	topo.Networks[0].Params = &custom
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Networks["sisci"].Params.WireLatency != 0 {
		t.Fatal("params override ignored")
	}
}

func TestDeterministicSessions(t *testing.T) {
	run := func() int64 {
		sess, err := Build(TwoNodes("sisci"))
		if err != nil {
			t.Fatal(err)
		}
		err = sess.Run(func(rank int, comm *mpi.Comm) error {
			buf := make([]byte, 1000)
			for i := 0; i < 5; i++ {
				if rank == 0 {
					if err := comm.Send(buf, 1000, mpi.Byte, 1, 0); err != nil {
						return err
					}
					if _, err := comm.Recv(buf, 1000, mpi.Byte, 1, 0); err != nil {
						return err
					}
				} else {
					if _, err := comm.Recv(buf, 1000, mpi.Byte, 0, 0); err != nil {
						return err
					}
					if err := comm.Send(buf, 1000, mpi.Byte, 0, 0); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(sess.S.Now())
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("session nondeterministic: %d vs %d", got, first)
		}
	}
}

// A hung session reports in host milliseconds. Rank 0 waits for a message
// nobody sends, and both ranks' TCP pollers idle up to the default 1000 s
// virtual deadline: 30 million idle cycles, which stepping one by one took
// about 10 s of host time, and which the kernel crosses in a few steps of
// whole poll periods. The report is the one stepping gave. Rank 1 is in
// MPI_Finalize's barrier, which runs on its main thread: a program of
// blocking collectives starts no engine thread.
func TestHangReportsWithinAHostSecond(t *testing.T) {
	start := time.Now()
	_, err := Launch(TwoNodes("tcp"), func(rank int, c *mpi.Comm) error {
		if rank == 0 {
			_, err := c.Recv(make([]byte, 4), 4, mpi.Byte, 1, 0)
			return err
		}
		return nil
	})
	host := time.Since(start)
	var de *vtime.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want a *vtime.DeadlineError, got %v", err)
	}
	want := `vtime: virtual deadline 1000000000.000us exceeded (next event at 1000000019.178us)
  task 0 "n0/ch_mad.poll.tcp": blocked on queue tcp.incoming
  task 1 "n1/ch_mad.poll.tcp": blocked on queue tcp.incoming
  task 2 "n0/main": blocked on event mpi.irecv
  task 3 "n1/main": blocked on event mpi.sched.barrier
`
	if got := err.Error(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	if host > time.Second {
		t.Errorf("the hang took %v of host time to report, budget 1 s", host)
	}
}
