// Package baselines provides the comparator MPI implementations of the
// paper's Figures 7 and 8 — ScaMPI (Scali's commercial SCI MPI), SCI-MPICH
// (RWTH Aachen's ch_smi device), MPI-GM (Myricom) and MPICH-PM (RWCP
// SCore) — as analytic piecewise-LogGP reference models calibrated to the
// published curves.
//
// These systems are closed-source or unobtainable (the paper itself
// obtained several of the curves from the implementations' own teams,
// §5.1), so they are encoded as *data series generators*, clearly labeled
// ReferenceModel, rather than simulated devices. The systems under test —
// ch_mad, ch_p4, raw Madeleine — are real implementations in this
// repository; these models only recreate the comparison lines of the
// paper's plots.
package baselines

import (
	"math"

	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// Segment is one linear piece of a transfer-time model:
// T(n) = Lat0 + n/Bw for n <= UpTo.
type Segment struct {
	UpTo  int     // inclusive upper bound in bytes
	Lat0  float64 // intercept, microseconds
	BwMBs float64 // asymptotic bandwidth of the piece, MB/s (2^20)
}

// ReferenceModel is a piecewise-linear one-way transfer-time model of a
// published MPI implementation.
type ReferenceModel struct {
	Name     string
	Segments []Segment
}

// OneWay evaluates the model at message size n.
func (m *ReferenceModel) OneWay(n int) vtime.Duration {
	for _, s := range m.Segments {
		if n <= s.UpTo {
			return vtime.Microseconds(s.Lat0 + float64(n)/(s.BwMBs*netsim.MB)*1e6)
		}
	}
	last := m.Segments[len(m.Segments)-1]
	return vtime.Microseconds(last.Lat0 + float64(n)/(last.BwMBs*netsim.MB)*1e6)
}

// Series evaluates the model over a size sweep.
func (m *ReferenceModel) Series(sizes []int) *stats.Series {
	s := &stats.Series{Name: m.Name}
	for _, sz := range sizes {
		s.Add(sz, m.OneWay(sz))
	}
	return s
}

// ScaMPI models Scali's commercial SCI MPI (Fig. 7): very low small-
// message latency (direct SISCI implementation, tightly tuned), bandwidth
// plateauing near 70 MB/s — overtaken by ch_mad's zero-copy rendez-vous
// beyond 16 KB.
func ScaMPI() *ReferenceModel {
	return &ReferenceModel{
		Name: "ScaMPI",
		Segments: []Segment{
			{UpTo: 8 << 10, Lat0: 8, BwMBs: 55},
			{UpTo: math.MaxInt32, Lat0: 30, BwMBs: 70},
		},
	}
}

// SCIMPICH models RWTH Aachen's SCI-MPICH / ch_smi device (Fig. 7):
// slightly higher latency than ScaMPI, similar plateau.
func SCIMPICH() *ReferenceModel {
	return &ReferenceModel{
		Name: "SCI-MPICH",
		Segments: []Segment{
			{UpTo: 8 << 10, Lat0: 12, BwMBs: 50},
			{UpTo: math.MaxInt32, Lat0: 35, BwMBs: 75},
		},
	}
}

// MPIGM models Myricom's MPI over GM 1.2.3 (Fig. 8): flat small-message
// curve that crosses ch_mad's around 512 B, but a bandwidth ceiling near
// 50 MB/s that both ch_mad and MPICH-PM decisively beat.
func MPIGM() *ReferenceModel {
	return &ReferenceModel{
		Name: "MPI-GM",
		Segments: []Segment{
			{UpTo: 1 << 10, Lat0: 26, BwMBs: 250},
			{UpTo: math.MaxInt32, Lat0: 35, BwMBs: 50},
		},
	}
}

// MPICHPM models RWCP's zero-copy MPICH-PM/SCore (Fig. 8; measured by its
// authors on the RWC PC Cluster II): lowest Myrinet latency, best
// bandwidth below 4 KB and above 256 KB, comparable to ch_mad in between.
func MPICHPM() *ReferenceModel {
	return &ReferenceModel{
		Name: "MPICH-PM",
		Segments: []Segment{
			{UpTo: 4 << 10, Lat0: 15, BwMBs: 90},
			{UpTo: 256 << 10, Lat0: 22, BwMBs: 110},
			{UpTo: math.MaxInt32, Lat0: 40, BwMBs: 118},
		},
	}
}
