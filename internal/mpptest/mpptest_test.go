package mpptest

import (
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

func TestMPIPingPongBasics(t *testing.T) {
	s, err := MPIPingPong("ch_mad", cluster.TwoNodes("bip"), []int{0, 4, 1024}, Config{Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	p0, _ := s.At(0)
	p4, _ := s.At(4)
	pk, _ := s.At(1024)
	if !(p0.OneWay < p4.OneWay && p4.OneWay < pk.OneWay) {
		t.Fatalf("latency not increasing with size: %v %v %v", p0.OneWay, p4.OneWay, pk.OneWay)
	}
}

func TestMutateHook(t *testing.T) {
	called := false
	_, err := MPIPingPong("x", cluster.TwoNodes("sisci"), []int{4}, Config{
		Mutate: func(sess *cluster.Session) {
			called = true
			for _, rk := range sess.Ranks {
				rk.ChMad.SetSwitchPoint(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("mutate hook not invoked")
	}
}

func TestForcedRendezvousSlowerAtTinySizes(t *testing.T) {
	// Forcing rendez-vous for everything must hurt small messages
	// (three-way handshake) relative to eager.
	eager, err := MPIPingPong("eager", cluster.TwoNodes("sisci"), []int{64}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rndv, err := MPIPingPong("rndv", cluster.TwoNodes("sisci"), []int{64}, Config{
		Mutate: func(sess *cluster.Session) {
			for _, rk := range sess.Ranks {
				rk.ChMad.SetSwitchPoint(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pe, _ := eager.At(64)
	pr, _ := rndv.At(64)
	if pr.OneWay <= pe.OneWay {
		t.Fatalf("forced rndv (%v) not slower than eager (%v) at 64B", pr.OneWay, pe.OneWay)
	}
}

// gatewayLine is three ranks on a line, sci -> gw -> bip: ranks 0 and 2
// share no network and reach each other through rank 1.
func gatewayLine(t *testing.T) *cluster.Session {
	t.Helper()
	sess, err := cluster.Build(cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "n0", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "gw"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"gw", "n1"}},
		},
		Forwarding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// handWrittenPingPong is the loop as the experiments spelled it out before
// PingPong existed, kept as the reference the kernel is compared with.
func handWrittenPingPong(t *testing.T, size, iters int) vtime.Duration {
	t.Helper()
	sess := gatewayLine(t)
	var oneWay vtime.Duration
	err := sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, size)
		switch rank {
		case 0:
			start := sess.S.Now()
			for i := 0; i < iters; i++ {
				if err := comm.Send(buf, size, mpi.Byte, 2, 1); err != nil {
					return err
				}
				if _, err := comm.Recv(buf, size, mpi.Byte, 2, 1); err != nil {
					return err
				}
			}
			oneWay = sess.S.Now().Sub(start) / vtime.Duration(2*iters)
		case 2:
			for i := 0; i < iters; i++ {
				if _, err := comm.Recv(buf, size, mpi.Byte, 0, 1); err != nil {
					return err
				}
				if err := comm.Send(buf, size, mpi.Byte, 0, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return oneWay
}

// TestPingPongKernel: between ranks 0 and 2 of the gateway line the kernel
// measures what the hand-written loop measures, on both sides of the
// eager/rendez-vous switch point, and the rank that is neither end returns
// at once with nothing.
func TestPingPongKernel(t *testing.T) {
	const iters = 2
	sp := gatewayLine(t).Ranks[0].ChMad.SwitchPointTo(2)
	if sp <= 1 {
		t.Fatalf("switch point toward rank 2 is %d", sp)
	}
	for _, size := range []int{0, sp - 1, sp, sp + 1, 1 << 20} {
		sess := gatewayLine(t)
		got := make([]vtime.Duration, 3)
		err := sess.Run(func(rank int, comm *mpi.Comm) error {
			before := sess.S.Now()
			d, err := PingPong(sess.S, comm, 0, 2, size, iters)
			got[rank] = d
			if rank == 1 && sess.S.Now() != before {
				t.Errorf("size %d: the bystander spent %v in PingPong", size, sess.S.Now().Sub(before))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := handWrittenPingPong(t, size, iters); got[0] != want || want <= 0 {
			t.Errorf("size %d: rank 0 measured %v, the hand-written loop %v", size, got[0], want)
		}
		if got[1] != 0 || got[2] != 0 {
			t.Errorf("size %d: ranks 1 and 2 got %v and %v, want 0", size, got[1], got[2])
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	if _, err := MPIPingPong("x", cluster.Topology{}, []int{4}, Config{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	one := cluster.Topology{
		Nodes:    []cluster.NodeSpec{{Name: "a", Procs: 1}},
		Networks: []cluster.NetworkSpec{{Name: "t", Protocol: "tcp", Nodes: []string{"a"}}},
	}
	if _, err := MPIPingPong("x", one, []int{4}, Config{}); err == nil {
		t.Fatal("single-rank topology accepted")
	}
}
