package core_test

import (
	"math"
	"testing"

	"mpichmad/internal/core"
	"mpichmad/internal/experiments"
	"mpichmad/internal/netsim"
)

// TestTable2Latencies validates the ch_mad summary table of the paper at
// the device level: 0 B and 4 B latency per protocol, against the figures
// and tolerances of internal/experiments' published table.
func TestTable2Latencies(t *testing.T) {
	for _, params := range []netsim.Params{netsim.FastEthernetTCP(), netsim.SCISISCI(), netsim.MyrinetBIP()} {
		for _, size := range []int{0, 4} {
			want, tolPct, _ := experiments.Published("chmad_"+params.Protocol, size)
			got := core.DevPingPong(t, params, size, 4).Micros()
			if math.Abs(got-want)/want*100 > tolPct {
				t.Errorf("%s %dB ch_mad latency = %.2fus, want %g ±%g%%", params.Network, size, got, want, tolPct)
			}
		}
	}
}

// TestTable2Bandwidth validates the 8 MB ch_mad bandwidths: the rendez-vous
// zero-copy path delivers nearly all of Madeleine's bandwidth.
func TestTable2Bandwidth(t *testing.T) {
	for _, params := range []netsim.Params{netsim.FastEthernetTCP(), netsim.SCISISCI(), netsim.MyrinetBIP()} {
		want, tolPct, _ := experiments.Published("chmad_"+params.Protocol, 8*netsim.MB)
		oneWay := core.DevPingPong(t, params, 8*netsim.MB, 1)
		got := float64(8*netsim.MB) / oneWay.Seconds() / netsim.MB
		if math.Abs(got-want)/want*100 > tolPct {
			t.Errorf("%s ch_mad 8MB bandwidth = %.1f MB/s, want %g ±%g%%", params.Network, got, want, tolPct)
		}
	}
}
