package mpptest_test

import (
	"math"
	"testing"

	"mpichmad/internal/experiments"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/netsim"
)

// TestRawMatchesTable1 runs the raw sweep with its default repetitions on
// SCI and holds its 4 B latency and 8 MB bandwidth to Table 1's figures,
// within the tolerances of internal/experiments' published table.
func TestRawMatchesTable1(t *testing.T) {
	s, err := mpptest.RawMadeleine("raw", netsim.SCISISCI(), []int{4, 8 * netsim.MB}, mpptest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := s.At(4)
	want, tolPct, _ := experiments.Published("raw_sisci", 4)
	if got := lat.LatencyUS(); math.Abs(got-want)/want*100 > tolPct {
		t.Errorf("SCI raw 4B = %.2fus, want %g ±%g%%", got, want, tolPct)
	}
	bw, _ := s.At(8 * netsim.MB)
	want, tolPct, _ = experiments.Published("raw_sisci", 8*netsim.MB)
	if got := bw.BandwidthMBs(); math.Abs(got-want)/want*100 > tolPct {
		t.Errorf("SCI raw 8MB = %.1f MB/s, want %g ±%g%%", got, want, tolPct)
	}
}
