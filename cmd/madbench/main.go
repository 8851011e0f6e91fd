// Command madbench benchmarks the raw Madeleine library (no MPI, no
// devices): the raw_Madeleine curves of the paper's figures and the
// numbers of Table 1.
//
// Usage:
//
//	madbench                    # all three protocols, paper sweep
//	madbench -proto bip -sizes 4,1024,8388608
package main

import (
	"flag"
	"fmt"
	"os"

	"mpichmad/internal/mpptest"
	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
)

func main() {
	proto := flag.String("proto", "", "protocol: tcp, sisci, bip (default: all)")
	sizesFlag := flag.String("sizes", "", "comma-separated sizes (default: paper sweep plus 8MB)")
	iters := flag.Int("iters", 3, "round trips per size")
	flag.Parse()

	sizes := append(stats.Sizes1B1MB(), 8*netsim.MB)
	if *sizesFlag != "" {
		var err error
		if sizes, err = stats.ParseSizes(*sizesFlag); err != nil {
			fatal(err)
		}
	}
	protos := []string{"tcp", "sisci", "bip"}
	if *proto != "" {
		protos = []string{*proto}
	}
	var series []*stats.Series
	for _, pr := range protos {
		params, ok := netsim.ByProtocol(pr)
		if !ok {
			fatal(fmt.Errorf("unknown protocol %q", pr))
		}
		s, err := mpptest.RawMadeleine(pr, params, sizes, mpptest.Config{Iters: *iters})
		if err != nil {
			fatal(err)
		}
		series = append(series, s)
	}
	fmt.Print(stats.Table("raw Madeleine — transfer time", "us", series, stats.Point.LatencyUS))
	fmt.Println()
	fmt.Print(stats.Table("raw Madeleine — bandwidth", "MB/s", series, stats.Point.BandwidthMBs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madbench:", err)
	os.Exit(1)
}
