// Package mpptest reimplements the measurement methodology of the paper's
// §5: ping-pong sweeps over message sizes, at the MPI level (like the
// mpptest program the authors used for the ch_mad and ch_p4 curves) and at
// the raw Madeleine level (for the raw_Madeleine curves), reporting
// one-way transfer time per size in virtual time.
//
// PingPong is the one MPI ping-pong loop outside bench/: a rank body that
// every driver calls from inside its own Session.Run. What it leaves to
// the caller is session policy, because the numbers depend on it: the
// paper's figures (MPIPingPong) sweep every size in one session with a
// barrier before each, so a size starts from the transport state the
// previous one left behind; the extension series of internal/experiments
// build a fresh session per size and use no barrier.
package mpptest

import (
	"fmt"

	"mpichmad/internal/cluster"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// Config tunes a sweep.
type Config struct {
	// Iters round trips per size (the deterministic simulator needs no
	// large repetition counts; >1 smooths protocol warm-up effects).
	Iters int
	// Mutate, if set, adjusts the built session before it runs (e.g.
	// overriding the elected switch point for ablations).
	Mutate func(*cluster.Session)
}

func (c *Config) defaults() {
	if c.Iters <= 0 {
		c.Iters = 3
	}
}

// pingTag is the tag of every ping-pong message. The tag travels in a
// fixed-width header field, so its value moves no number.
const pingTag = 1

// PingPong is the ping-pong kernel, written as a rank body: ranks a and b
// of comm bounce a size-byte message iters times with blocking MPI_Send /
// MPI_Recv, exactly like mpptest, and every other rank returns at once.
// Rank a gets the one-way transfer time — elapsed / 2·iters on s's clock —
// everyone else 0.
func PingPong(s *vtime.Scheduler, comm *mpi.Comm, a, b, size, iters int) (vtime.Duration, error) {
	me := comm.Rank()
	if me != a && me != b {
		return 0, nil
	}
	peer := a + b - me
	buf := make([]byte, size)
	start := s.Now()
	for i := 0; i < iters; i++ {
		if me == a {
			if err := comm.Send(buf, size, mpi.Byte, peer, pingTag); err != nil {
				return 0, err
			}
		}
		if _, err := comm.Recv(buf, size, mpi.Byte, peer, pingTag); err != nil {
			return 0, err
		}
		if me == b {
			if err := comm.Send(buf, size, mpi.Byte, peer, pingTag); err != nil {
				return 0, err
			}
		}
	}
	if me != a {
		return 0, nil
	}
	return s.Now().Sub(start) / vtime.Duration(2*iters), nil
}

// MPIPingPong measures one-way transfer time between ranks 0 and 1 of the
// given topology for every size: one session for the whole sweep, a
// barrier before each size. The returned series is named after name.
func MPIPingPong(name string, topo cluster.Topology, sizes []int, cfg Config) (*stats.Series, error) {
	cfg.defaults()
	sess, err := cluster.Build(topo)
	if err != nil {
		return nil, err
	}
	if len(sess.Ranks) < 2 {
		return nil, fmt.Errorf("mpptest: topology has %d ranks, need >= 2", len(sess.Ranks))
	}
	if cfg.Mutate != nil {
		cfg.Mutate(sess)
	}
	series := &stats.Series{Name: name}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		for _, size := range sizes {
			if err := comm.Barrier(); err != nil {
				return err
			}
			oneWay, err := PingPong(sess.S, comm, 0, 1, size, cfg.Iters)
			if err != nil {
				return err
			}
			if rank == 0 {
				series.Add(size, oneWay)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// RawMadeleine measures one-way transfer time of the bare Madeleine
// library over one network (the raw_Madeleine curves): a single pack /
// unpack per message, no MPI, no devices, no polling threads.
func RawMadeleine(name string, params netsim.Params, sizes []int, cfg Config) (*stats.Series, error) {
	cfg.defaults()
	series := &stats.Series{Name: name}
	for _, size := range sizes {
		oneWay, err := rawOnce(params, size, cfg.Iters)
		if err != nil {
			return nil, err
		}
		series.Add(size, oneWay)
	}
	return series, nil
}

func rawOnce(params netsim.Params, size, iters int) (vtime.Duration, error) {
	s := vtime.New()
	s.SetDeadline(vtime.Time(500 * vtime.Second))
	net := netsim.NewNetwork(s, params.Network, params)
	pa, pb := marcel.NewProc(s, "a"), marcel.NewProc(s, "b")
	ia, ib := madeleine.New(pa), madeleine.New(pb)
	chA, err := ia.NewChannel("raw", net)
	if err != nil {
		return 0, err
	}
	chB, err := ib.NewChannel("raw", net)
	if err != nil {
		return 0, err
	}
	var elapsed vtime.Duration
	var rankErr error
	side := func(ch *madeleine.Channel, peer string, lead bool) func() {
		return func() {
			buf := make([]byte, size)
			start := s.Now()
			for i := 0; i < iters; i++ {
				var err error
				if lead {
					err = rawSend(ch, peer, buf)
				}
				if err == nil {
					err = rawRecv(ch, buf)
				}
				if err == nil && !lead {
					err = rawSend(ch, peer, buf)
				}
				if err != nil {
					rankErr = err
					return
				}
			}
			if lead {
				elapsed = s.Now().Sub(start)
			}
		}
	}
	pa.Spawn("ping", side(chA, "b", true))
	pb.Spawn("pong", side(chB, "a", false))
	if err := s.Run(); err != nil {
		return 0, err
	}
	if rankErr != nil {
		return 0, rankErr
	}
	return elapsed / vtime.Duration(2*iters), nil
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
