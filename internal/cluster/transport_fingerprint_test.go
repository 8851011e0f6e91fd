package cluster

// The transport fingerprint: the pin a refactor of the ch_mad device is
// judged by, one layer below internal/mpi's schedule fingerprint. The
// device tests prove every transfer mode delivers the right bytes; they
// cannot see a refactor that delivers them at a different virtual instant,
// over a different rail, or with one more credit refusal. The simulator is
// deterministic, so a session's final virtual time, its per-network packet
// and byte counts and every device's public counters identify what the
// transport did. Every wiring × payload × receive mode below is recorded in
// testdata/transport_fingerprints.txt and must regenerate unchanged.
//
// To re-record after an intended transport change: delete the file and run
// the test once (it writes the file and fails, naming it).

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

const transportFingerprintFile = "testdata/transport_fingerprints.txt"

// tfWiring is one session shape of the matrix. stride places the traffic:
// in wave k (1, 2) rank r sends to rank (r + k*stride) mod n, every rank
// at once, and starts its second send when the first completed — so
// gateways see concurrent trains first and late rendez-vous requests
// arriving at loaded relay queues second. tweak flips device ablation
// flags between Build and Run; aboveSeg marks an ablation that only acts on
// rendez-vous bodies larger than the relay segment, so the payloads below
// it (the base wiring's lines again) are skipped. extra adds payloads, kept
// even where aboveSeg would skip them.
type tfWiring struct {
	name     string
	topo     func() Topology
	stride   int
	tweak    func(*Session)
	aboveSeg bool
	extra    []int
}

func tfChain() Topology {
	return Topology{
		Nodes: []NodeSpec{{Name: "n0", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "gw"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"gw", "n1"}},
		},
		Forwarding: true,
	}
}

// tfRelaySegment is the relay segment of rank 0's route to the last rank,
// read off the routing plan's path summary.
func tfRelaySegment(topo Topology) int {
	sess, err := Build(topo)
	if err != nil {
		panic(err)
	}
	plan := sess.RoutePlan()
	hops, ok := plan.Path(0, len(sess.Ranks)-1)
	if !ok {
		panic("tfRelaySegment: no route")
	}
	return plan.Info(hops).Segment
}

func tfMulti() Topology {
	return Topology{
		Nodes: []NodeSpec{{Name: "n0", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "n1"}},
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
		},
	}
}

func tfEachDevice(f func(rk *Rank)) func(*Session) {
	return func(sess *Session) {
		for _, rk := range sess.Ranks {
			f(rk)
		}
	}
}

func tfWirings() []tfWiring {
	// The chain's relayed body at the relay segment and one byte above it:
	// the last uncut body and the first segment train.
	seg := tfRelaySegment(tfChain())
	return []tfWiring{
		{name: "tcp", topo: func() Topology { return TwoNodes("tcp") }, stride: 1},
		{name: "sisci", topo: func() Topology { return TwoNodes("sisci") }, stride: 1},
		{name: "bip", topo: func() Topology { return TwoNodes("bip") }, stride: 1},
		{name: "sci+tcp", topo: tfMulti, stride: 1},
		{name: "sisci-monolithic", topo: func() Topology { return TwoNodes("sisci") }, stride: 1,
			tweak: tfEachDevice(func(rk *Rank) { rk.ChMad.MonolithicEager = true })},
		{name: "chain", topo: tfChain, stride: 1, extra: []int{seg, seg + 1}},
		// Monolithic eager pads to the device-wide threshold, so both ends
		// must elect the same one: an all-SCI chain.
		{name: "scichain-monolithic", topo: func() Topology {
			topo := tfChain()
			topo.Networks[1].Protocol = "sisci"
			return topo
		}, stride: 1,
			tweak: tfEachDevice(func(rk *Rank) { rk.ChMad.MonolithicEager = true })},
		{name: "chain-storefwd", topo: tfChain, stride: 1, aboveSeg: true, extra: []int{seg, seg + 1},
			tweak: tfEachDevice(func(rk *Rank) { rk.ChMad.RelayPipelining = false })},
		{name: "line", topo: bridgedTriple, stride: 3},
		{name: "triangle", topo: bridgedTriangle, stride: 3},
		{name: "triangle-window2", topo: func() Topology {
			topo := bridgedTriangle()
			topo.RelayWindow = 2
			return topo
		}, stride: 3},
		// Built with Autotune for its BDP-sized relay windows; the tweak skips
		// the MPI_Init sweep (whose own cost the schedule fingerprint pins)
		// and writes a measured wan-class switch point into each rank's
		// shared threshold table in its place, the second level of the
		// threshold resolution.
		{name: "triangle-autotuned", topo: func() Topology {
			topo := bridgedTriangle()
			topo.Autotune = true
			return topo
		}, stride: 3, extra: []int{32767, 32768, 32769},
			tweak: func(sess *Session) {
				sess.Topo.Autotune = false
				tfEachDevice(func(rk *Rank) { rk.ChMad.ClassSwitch["wan"] = 32768 })(sess)
			}},
		{name: "triangle-storefwd", topo: bridgedTriangle, stride: 3, aboveSeg: true,
			tweak: tfEachDevice(func(rk *Rank) { rk.ChMad.RelayPipelining = false })},
		{name: "triangle-nostripe", topo: bridgedTriangle, stride: 3, aboveSeg: true,
			tweak: tfEachDevice(func(rk *Rank) { rk.ChMad.RelayStriping = false })},
		{name: "uniform", topo: func() Topology { return muxTopo(true) }, stride: 1},
	}
}

// tfBig is the payload from which a many-rank session is trimmed to stay
// inside the test's wall-clock budget (see tfModes and tfSolo).
const tfBig = 300000

// tfModes lists the receive modes run for one payload. Big payloads on
// many-rank wirings keep the two modes that land the body differently; the
// handshake variants are covered at every smaller rendez-vous size.
func tfModes(w tfWiring, ranks, size int) []string {
	switch {
	case size == 0 && w.topo().Forwarding:
		// Nothing to truncate, and a relayed zero-length synchronous send
		// crashes the gateway at the commit this pin was recorded on
		// (forward leaves the empty body block of its MAD_RNDV_PKT packed).
		return []string{"expected", "unexpected"}
	case size == 0:
		return []string{"expected", "unexpected", "ssend"}
	case ranks > 3 && size >= tfBig:
		return []string{"expected", "truncating"}
	}
	return []string{"expected", "unexpected", "ssend", "truncating"}
}

// tfSolo reports whether only rank 0 sends: above tfBig on a many-rank
// wiring the session is one uncontended long train per wave (tfBig itself
// is the contended case, every rank sending at once).
func tfSolo(ranks, size int) bool { return ranks > 3 && size > tfBig }

// tfSizes is the payload ladder of one wiring: the fixed sizes plus the
// three sizes straddling rank 0's eager->rendez-vous threshold toward each
// of its two peers and, on relayed routes, one byte past the relay segment.
func tfSizes(t *testing.T, w tfWiring) (sizes []int, ranks int) {
	t.Helper()
	sess, err := Build(w.topo())
	if err != nil {
		t.Fatal(err)
	}
	dev := sess.Ranks[0].ChMad
	sizes = append([]int{0, 1, 1 << 10, tfBig, 1 << 20}, w.extra...)
	minSeg := 0
	for k := 1; k <= 2; k++ {
		peer := (k * w.stride) % len(sess.Ranks)
		rt, ok := dev.RouteTo(peer)
		if !ok {
			continue // wave 2 of a two-rank wiring wraps onto rank 0 itself
		}
		sp := dev.SwitchPointTo(peer)
		sizes = append(sizes, sp-1, sp, sp+1)
		if rt.SegBytes > 0 {
			sizes = append(sizes, rt.SegBytes+1)
			if minSeg == 0 || rt.SegBytes < minSeg {
				minSeg = rt.SegBytes
			}
		}
	}
	sort.Ints(sizes)
	var out []int
	for _, s := range sizes {
		if w.aboveSeg && s <= minSeg && !slices.Contains(w.extra, s) {
			continue
		}
		if len(out) == 0 || s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out, len(sess.Ranks)
}

// tfPayload returns n deterministic non-zero bytes. Every sender of a
// session ships the same read-only slice: the fingerprint pins timing and
// counters, the device tests pin the bytes.
func tfPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + i%251)
	}
	return b
}

// tfSession runs the two traffic waves on a fresh session and renders its
// fingerprint line.
func tfSession(t *testing.T, w tfWiring, size int, mode string) string {
	t.Helper()
	sess, err := Build(w.topo())
	if err != nil {
		t.Fatal(err)
	}
	if w.tweak != nil {
		w.tweak(sess)
	}
	n := len(sess.Ranks)
	solo := tfSolo(n, size)
	data := tfPayload(size)
	bufLen := size
	if mode == "truncating" {
		bufLen = size / 2
	}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		postRecvs := func() ([]*mpi.Request, error) {
			var reqs []*mpi.Request
			for k := 1; k <= 2; k++ {
				src := ((rank-k*w.stride)%n + n) % n
				if src == rank || (solo && src != 0) {
					continue
				}
				req, err := comm.Irecv(make([]byte, bufLen), bufLen, mpi.Byte, src, k)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, req)
			}
			return reqs, nil
		}
		send := func(k int) (*mpi.Request, error) {
			dst := (rank + k*w.stride) % n
			if dst == rank || (solo && rank != 0) {
				return nil, nil
			}
			if mode == "ssend" {
				return nil, comm.Ssend(data, size, mpi.Byte, dst, k)
			}
			return comm.Isend(data, size, mpi.Byte, dst, k)
		}
		var recvs []*mpi.Request
		var err error
		if mode != "unexpected" {
			if recvs, err = postRecvs(); err != nil {
				return err
			}
		}
		first, err := send(1)
		if err != nil {
			return err
		}
		if mode == "unexpected" {
			// Let every first-wave message (or its REQUEST) arrive unmatched.
			sess.Ranks[rank].Proc.Sleep(5 * vtime.Millisecond)
			if recvs, err = postRecvs(); err != nil {
				return err
			}
		}
		if first != nil {
			if _, err := first.Wait(); err != nil {
				return err
			}
		}
		second, err := send(2)
		if err != nil {
			return err
		}
		if second != nil {
			if _, err := second.Wait(); err != nil {
				return err
			}
		}
		for _, req := range recvs {
			_, err := req.Wait()
			if bufLen < size && errors.Is(err, adi.ErrTruncate) {
				err = nil
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s %dB %s: %v", w.name, size, mode, err)
	}
	names := make([]string, 0, len(sess.Networks))
	for name := range sess.Networks {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%d", int64(sess.S.Now()))
	for _, name := range names {
		st := sess.Networks[name].Stats
		fmt.Fprintf(&sb, " %s=%d/%d", name, st.Packets, st.Bytes)
	}
	// Every message of a fingerprint session is received, so every buffer
	// of the session's list — snapshot, eager landing area, relay store,
	// stash — must be home.
	if out := sess.bufs.Out(); out != 0 {
		t.Errorf("%s %dB %s: %d wire buffers still out at the end of the session", w.name, size, mode, out)
	}
	for _, rk := range sess.Ranks {
		d := rk.ChMad
		fmt.Fprintf(&sb, " r%d=%d/%d/%d/%d/%d/%d/%d/%d/%d", rk.Rank,
			d.NEager, d.NRndv, d.NForwarded, d.RelayBytes, d.NRelayDeferred,
			d.NRelayBusy, d.NRndvRetries, d.RelayQueuePeak, d.RelayWindow)
	}
	return sb.String()
}

// transportFingerprintLines regenerates the whole fingerprint. Per-rank
// fields are NEager/NRndv/NForwarded/RelayBytes/NRelayDeferred/NRelayBusy/
// NRndvRetries/RelayQueuePeak/RelayWindow.
func transportFingerprintLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, w := range tfWirings() {
		sizes, ranks := tfSizes(t, w)
		for _, size := range sizes {
			for _, mode := range tfModes(w, ranks, size) {
				lines = append(lines, fmt.Sprintf("%s %dB %s: %s", w.name, size, mode,
					tfSession(t, w, size, mode)))
			}
		}
	}
	return lines
}

func TestTransportFingerprint(t *testing.T) {
	got := transportFingerprintLines(t)
	raw, err := os.ReadFile(transportFingerprintFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transportFingerprintFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: recorded %d lines; review and commit it", transportFingerprintFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("fingerprint has %d lines, %s has %d", len(got), transportFingerprintFile, len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... and %d more differing lines", bad-20)
	}
}
