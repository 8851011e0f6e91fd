package stats

import (
	"os"
	"strings"
	"testing"

	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

func TestPointMath(t *testing.T) {
	p := Point{Size: netsim.MB, OneWay: vtime.Second}
	if p.BandwidthMBs() != 1.0 {
		t.Fatalf("bw = %f", p.BandwidthMBs())
	}
	if p.LatencyUS() != 1e6 {
		t.Fatalf("lat = %f", p.LatencyUS())
	}
	if (Point{Size: 1, OneWay: 0}).BandwidthMBs() != 0 {
		t.Fatal("zero time must not divide")
	}
}

func TestSeriesAtAndAdd(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(4, 10*vtime.Microsecond)
	s.Add(8, 20*vtime.Microsecond)
	if p, ok := s.At(8); !ok || p.OneWay != 20*vtime.Microsecond {
		t.Fatal("At lookup broken")
	}
	if _, ok := s.At(99); ok {
		t.Fatal("phantom point")
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		1: "1", 512: "512", 1024: "1K", 8192: "8K",
		1 << 20: "1M", 8 << 20: "8M", 1500: "1500",
	}
	for n, want := range cases {
		if got := SizeLabel(n); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSweepsShape(t *testing.T) {
	a := Sizes1B1KB()
	if a[0] != 1 || a[len(a)-1] != 1024 {
		t.Fatal("latency sweep bounds")
	}
	b := Sizes1B1MB()
	if b[0] != 1 || b[len(b)-1] != 1<<20 {
		t.Fatal("bandwidth sweep bounds")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("sweep not increasing")
		}
	}
}

func TestRelayTableColumns(t *testing.T) {
	rows := []RelayStat{
		{Name: "rank1(gw)", Msgs: 10, Bytes: 4096, DropsNoRoute: 2,
			Deferred: 5, BusyNacks: 1, QueuePeak: 4, Window: 8},
		{Name: "rank2(gw)", Msgs: 7, Bytes: 2048, QueuePeak: 2},
	}
	tab := RelayTable("relays", rows)
	for _, want := range []string{"drop-noroute", "deferred", "busy-nack", "4/8"} {
		if !strings.Contains(tab, want) {
			t.Errorf("relay table missing %q:\n%s", want, tab)
		}
	}
	// An unbounded gateway renders a bare peak, not a x/0 bound.
	if strings.Contains(tab, "2/0") {
		t.Errorf("unbounded gateway rendered a bound:\n%s", tab)
	}
}

func TestTableAndCSVRendering(t *testing.T) {
	s1 := &Series{Name: "a"}
	s1.Add(1, 10*vtime.Microsecond)
	s1.Add(1024, 20*vtime.Microsecond)
	s2 := &Series{Name: "b"}
	s2.Add(1024, 40*vtime.Microsecond)

	tab := Table("t", "us", []*Series{s1, s2}, Point.LatencyUS)
	if !strings.Contains(tab, "1K") || !strings.Contains(tab, "40.00") {
		t.Fatalf("table:\n%s", tab)
	}
	// Missing cells render as '-'.
	if !strings.Contains(tab, "-") {
		t.Fatalf("missing-cell marker absent:\n%s", tab)
	}

	csv := CSV([]*Series{s1, s2}, Point.LatencyUS)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "size,a,b" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("csv rows: %v", lines)
	}
	if !strings.HasPrefix(lines[2], "1024,20.000,40.000") {
		t.Fatalf("csv row %q", lines[2])
	}
}

// The BENCH format reads the committed file and writes it back byte for
// byte: field order, optional fields, float rendering, final newline.
func TestBenchFileRoundTripsCommittedFiles(t *testing.T) {
	const path = "../../BENCH_scale.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Planner) != 3 || f.RunWallMs <= 0 {
		t.Errorf("%s: %d planner samples read, run wall clock %v ms", path, len(f.Planner), f.RunWallMs)
	}
	got, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s does not round-trip: %d bytes read, %d written", path, len(want), len(got))
	}
}
