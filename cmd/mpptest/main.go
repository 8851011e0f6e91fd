// Command mpptest is the reproduction's analogue of the mpptest tool the
// paper used (§5.1): an MPI-level ping-pong sweep over message sizes on a
// configurable simulated topology, reporting one-way transfer time and
// bandwidth.
//
// Usage:
//
//	mpptest -proto sisci                 # mono-protocol ch_mad (default)
//	mpptest -proto tcp -device ch_p4     # the ch_p4 baseline
//	mpptest -multi                       # SCI + idle TCP poller (Fig. 9)
//	mpptest -sizes 0,4,1024,1048576 -iters 5
package main

import (
	"flag"
	"fmt"
	"os"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/stats"
)

func main() {
	proto := flag.String("proto", "sisci", "network protocol: tcp, sisci, bip")
	device := flag.String("device", "ch_mad", "inter-node device: ch_mad or ch_p4 (ch_p4 requires -proto tcp)")
	multi := flag.Bool("multi", false, "multi-protocol config: traffic on -proto with an additional idle TCP channel (Fig. 9)")
	sizesFlag := flag.String("sizes", "", "comma-separated message sizes in bytes (default: the paper's 1B..1MB sweep)")
	iters := flag.Int("iters", 3, "round trips per size")
	csv := flag.Bool("csv", false, "CSV output")
	flag.Parse()

	sizes := stats.Sizes1B1MB()
	if *sizesFlag != "" {
		var err error
		if sizes, err = stats.ParseSizes(*sizesFlag); err != nil {
			fatal(err)
		}
	}

	topo := cluster.TwoNodes(*proto)
	topo.Device = *device
	if *multi {
		topo = cluster.Topology{
			Nodes: []cluster.NodeSpec{{Name: "n0", Procs: 1}, {Name: "n1", Procs: 1}},
			Networks: []cluster.NetworkSpec{
				{Name: *proto, Protocol: *proto, Nodes: []string{"n0", "n1"}},
				{Name: "tcp", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
			},
		}
	}

	name := *device + "/" + *proto
	series, err := mpptest.MPIPingPong(name, topo, sizes, mpptest.Config{Iters: *iters})
	if err != nil {
		fatal(err)
	}
	all := []*stats.Series{series}
	if *csv {
		fmt.Print(stats.CSV(all, stats.Point.LatencyUS))
		return
	}
	fmt.Print(stats.Table("mpptest "+name+" — transfer time", "us", all, stats.Point.LatencyUS))
	fmt.Println()
	fmt.Print(stats.Table("mpptest "+name+" — bandwidth", "MB/s", all, stats.Point.BandwidthMBs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpptest:", err)
	os.Exit(1)
}
