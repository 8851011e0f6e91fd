// Heterocluster: the paper's motivating scenario (§1) — a cluster of
// clusters. An SCI island and a Myrinet island are joined by a
// Fast-Ethernet backbone; a single MPI session spans all six ranks, and
// every pair communicates over the best network available to it
// simultaneously (the paper's headline capability). The per-link device
// mux classifies each pair's link — the two ranks sharing node sci0
// ride the smp shared-memory class, island pairs their SAN class,
// cross-island pairs the wan class — and each link runs its own
// eager/rendez-vous switch point. The example prints rank 0's link map
// (class and effective switch point per peer) and the measured pairwise
// latency matrix, which makes the multi-protocol routing visible:
// ~30 us inside the SCI and Myrinet islands (the idle TCP backbone
// poller adds its Fig. 9 overhead on every node), ~150 us across the
// backbone.
//
//	go run ./examples/heterocluster
package main

import (
	"fmt"
	"log"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

func main() {
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "sci0", Procs: 2}, {Name: "sci1", Procs: 1}, {Name: "sci2", Procs: 1},
			{Name: "myri0", Procs: 1}, {Name: "myri1", Procs: 1}, {Name: "myri2", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"sci0", "sci1", "sci2"}},
			{Name: "myrinet", Protocol: "bip", Nodes: []string{"myri0", "myri1", "myri2"}},
			{Name: "ethernet", Protocol: "tcp",
				Nodes: []string{"sci0", "sci1", "sci2", "myri0", "myri1", "myri2"}},
		},
	}
	sess, err := cluster.Build(topo)
	if err != nil {
		log.Fatal(err)
	}

	// The session discovers the cluster-of-clusters structure from the
	// declarative topology; the two-level collectives dispatch on it.
	h := sess.Hierarchy()
	fmt.Printf("discovered hierarchy: %d clusters\n", h.NumClusters())
	for ci, ranks := range sess.Clusters() {
		link := h.Nets[h.ClusterNames[ci]]
		fmt.Printf("  cluster %d %-9s (%6.1f MB/s, %5.1f us) ranks %v leader %d\n",
			ci, link.Net, link.BandwidthMBs, link.LatencyUS, ranks, ranks[0])
	}
	fmt.Printf("  backbone  %-9s (%6.1f MB/s, %5.1f us) pipeline segment %d B\n",
		h.Inter.Net, h.Inter.BandwidthMBs, h.Inter.LatencyUS, h.Inter.SegmentBytes)
	fmt.Println("rank 0 link map (device class and channel carrying traffic to each peer):")
	for dst := 1; dst < len(sess.Ranks); dst++ {
		class := sess.LinkClassOf(0, dst)
		if name, params, ok := sess.Ranks[0].ChMad.RouteNet(dst); ok {
			fmt.Printf("  -> rank %d (%-6s) class %-4s via %s/%s, switch point %d B\n",
				dst, sess.RankNode(dst), class, name, params.Protocol,
				sess.Ranks[0].ChMad.SwitchPointTo(dst))
		} else {
			fmt.Printf("  -> rank %d (%-6s) class %-4s (off the ch_mad device)\n",
				dst, sess.RankNode(dst), class)
		}
	}
	fmt.Println()

	n := len(sess.Ranks)
	latency := make([][]float64, n)
	for i := range latency {
		latency[i] = make([]float64, n)
	}

	const iters = 3
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		buf := make([]byte, 4)
		// Deterministic pairwise schedule: for each ordered pair (i, j),
		// i drives a ping-pong while j echoes; everyone else waits at
		// the next barrier.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if rank == i {
					start := sess.S.Now()
					for k := 0; k < iters; k++ {
						if err := comm.Send(buf, 4, mpi.Byte, j, 0); err != nil {
							return err
						}
						if _, err := comm.Recv(buf, 4, mpi.Byte, j, 0); err != nil {
							return err
						}
					}
					latency[i][j] = sess.S.Now().Sub(start).Micros() / (2 * iters)
				}
				if rank == j {
					for k := 0; k < iters; k++ {
						if _, err := comm.Recv(buf, 4, mpi.Byte, i, 0); err != nil {
							return err
						}
						if err := comm.Send(buf, 4, mpi.Byte, i, 0); err != nil {
							return err
						}
					}
				}
				if err := comm.Barrier(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("pairwise 4-byte one-way latency (us) — multi-protocol routing at work:")
	fmt.Printf("%8s", "")
	for j := 0; j < n; j++ {
		fmt.Printf(" %8s", sess.Ranks[j].Node)
	}
	fmt.Println()
	for i := 0; i < n; i++ {
		fmt.Printf("%8s", sess.Ranks[i].Node)
		for j := 0; j < n; j++ {
			if i == j {
				fmt.Printf(" %8s", "-")
			} else {
				fmt.Printf(" %8.1f", latency[i][j])
			}
		}
		fmt.Println()
	}
	fmt.Println()
	for name, net := range sess.Networks {
		fmt.Printf("network %-9s carried %6d packets, %9d bytes\n",
			name, net.Stats.Packets, net.Stats.Bytes)
	}
}
