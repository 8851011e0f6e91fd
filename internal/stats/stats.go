// Package stats provides the measurement series and formatting used by the
// benchmark harness: message-size sweeps, latency/bandwidth points, and
// table/gnuplot-style rendering matching the paper's figures (§5.1: "all
// results are expressed in Megabytes where 1 MB represents 2^20 bytes").
package stats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// Point is one measurement: one message size, one transfer time.
type Point struct {
	Size   int            // message size in bytes
	OneWay vtime.Duration // one-way transfer time (half round trip)
}

// LatencyUS returns the transfer time in microseconds.
func (p Point) LatencyUS() float64 { return p.OneWay.Micros() }

// BandwidthMBs returns the achieved bandwidth in the paper's MB/s
// (MB = 2^20 bytes).
func (p Point) BandwidthMBs() float64 {
	if p.OneWay <= 0 {
		return 0
	}
	return float64(p.Size) / p.OneWay.Seconds() / netsim.MB
}

// Series is a named curve, as plotted in the paper's figures.
type Series struct {
	Name   string
	Points []Point

	// index maps size -> Points position, rebuilt lazily by At when it
	// falls behind Points, so Table/CSV (one At per size per series) stay
	// linear in the sweep length instead of quadratic. Later duplicates
	// of a size win, matching the old last-append-invisible scan order:
	// the linear scan returned the first match, but sweeps never repeat a
	// size, so the distinction is unobservable in practice.
	index map[int]int
}

// Add appends a measurement.
func (s *Series) Add(size int, oneWay vtime.Duration) {
	s.Points = append(s.Points, Point{Size: size, OneWay: oneWay})
}

// At returns the point for a given size, ok=false if absent.
func (s *Series) At(size int) (Point, bool) {
	if len(s.index) != len(s.Points) {
		s.index = make(map[int]int, len(s.Points))
		for i, p := range s.Points {
			s.index[p.Size] = i
		}
	}
	i, ok := s.index[size]
	if !ok {
		return Point{}, false
	}
	return s.Points[i], true
}

// RelayStat is one gateway's relay load accounting for a session:
// messages and body bytes it forwarded for other ranks, messages dropped
// at a routing hole (a full gateway never drops — it defers or busy-nacks,
// so CI triage can tell a misconfigured topology from a hot gateway), the
// admission-control activity (deferred bodies, busy-nacked rendez-vous
// requests), and the peak store-and-forward queue depth against its
// configured bound.
type RelayStat struct {
	Name  string
	Msgs  uint64
	Bytes uint64
	// DropsNoRoute counts relayed messages dropped for lack of an onward
	// route.
	DropsNoRoute uint64
	// Deferred counts relayed bodies that waited for a relay credit;
	// BusyNacks counts rendez-vous requests refused (and retried
	// upstream) because the queue was full.
	Deferred  uint64
	BusyNacks uint64
	// QueuePeak is the peak store-and-forward queue depth; Window is the
	// configured credit bound (0 = unbounded). QueuePeak never exceeds a
	// non-zero Window.
	QueuePeak int
	Window    int
	// TrunkWait is the total time this gateway's outbound packets spent
	// queued for a shared backbone trunk behind other pipes' traffic
	// (netsim trunk arbiter, via the session metrics registry): the
	// column that separates a gateway stalled on the wire from one
	// stalled on its own relay queue.
	TrunkWait vtime.Duration
}

// RelayTable renders gateway relay accounting as an aligned table.
func RelayTable(title string, rows []RelayStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-18s %10s %14s %12s %9s %10s %11s %12s\n",
		"gateway", "msgs", "bytes", "drop-noroute", "deferred", "busy-nack", "queue-peak", "trunk-wait")
	for _, r := range rows {
		peak := fmt.Sprintf("%d", r.QueuePeak)
		if r.Window > 0 {
			peak = fmt.Sprintf("%d/%d", r.QueuePeak, r.Window)
		}
		fmt.Fprintf(&b, "%-18s %10d %14d %12d %9d %10d %11s %10.1fus\n",
			r.Name, r.Msgs, r.Bytes, r.DropsNoRoute,
			r.Deferred, r.BusyNacks, peak, r.TrunkWait.Micros())
	}
	return b.String()
}

// Sizes1B1KB is the paper's transfer-time sweep (Figs. 6a/7a/8a x-axis).
func Sizes1B1KB() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// Sizes1B1MB is the paper's bandwidth sweep (Figs. 6b/7b/8b x-axis).
func Sizes1B1MB() []int {
	return []int{1, 4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
}

// SizeLabel formats a byte count like the paper's axes (1, 4K, 1M, ...).
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// ParseSizes reads a comma-separated list of byte counts, the -sizes flag
// of the sweep commands.
func ParseSizes(list string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// sizesOf returns every size any of the series has a point at, ascending:
// the rows of a table.
func sizesOf(series []*Series) []int {
	sizeSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			sizeSet[p.Size] = true
		}
	}
	sizes := make([]int, 0, len(sizeSet))
	for sz := range sizeSet {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	return sizes
}

// Table renders aligned columns: size plus one column per series, using
// render to extract the value (e.g. Point.LatencyUS).
func Table(title, valueHeader string, series []*Series, render func(Point) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s)\n", title, valueHeader)
	fmt.Fprintf(&b, "%-10s", "size")
	for _, s := range series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	for _, sz := range sizesOf(series) {
		fmt.Fprintf(&b, "%-10s", SizeLabel(sz))
		for _, s := range series {
			if p, ok := s.At(sz); ok {
				fmt.Fprintf(&b, " %16.2f", render(p))
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the same data as comma-separated values for plotting.
func CSV(series []*Series, render func(Point) float64) string {
	var b strings.Builder
	b.WriteString("size")
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for _, sz := range sizesOf(series) {
		fmt.Fprintf(&b, "%d", sz)
		for _, s := range series {
			b.WriteByte(',')
			if p, ok := s.At(sz); ok {
				fmt.Fprintf(&b, "%.3f", render(p))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
