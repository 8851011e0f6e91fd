package madeleine_test

import (
	"math"
	"testing"

	"mpichmad/internal/experiments"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/netsim"
)

// table1Check measures the raw Madeleine ping-pong at size on each preset
// and compares it with Table 1's figure, in the figure's unit, within the
// tolerance internal/experiments' published table gives it.
func table1Check(t *testing.T, size, iters int) {
	t.Helper()
	for _, params := range []netsim.Params{netsim.FastEthernetTCP(), netsim.SCISISCI(), netsim.MyrinetBIP()} {
		series := "raw_" + params.Protocol
		s, err := mpptest.RawMadeleine(series, params, []int{size}, mpptest.Config{Iters: iters})
		if err != nil {
			t.Fatal(err)
		}
		want, tolPct, unit := experiments.Published(series, size)
		p, _ := s.At(size)
		got := p.LatencyUS()
		if unit == "MB/s" {
			got = p.BandwidthMBs()
		}
		if math.Abs(got-want)/want*100 > tolPct {
			t.Errorf("%s raw %s at %dB = %.2f, want %g ±%g%%", params.Network, unit, size, got, want, tolPct)
		}
	}
}

// TestTable1RawLatency checks the calibrated raw Madeleine 4 B latencies
// against the paper's Table 1.
func TestTable1RawLatency(t *testing.T) { table1Check(t, 4, 4) }

// TestTable1RawBandwidth checks the raw Madeleine 8 MB bandwidths against
// the paper's Table 1.
func TestTable1RawBandwidth(t *testing.T) { table1Check(t, 8*netsim.MB, 1) }
