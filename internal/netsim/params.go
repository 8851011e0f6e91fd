// Package netsim is the simulated network fabric substituting for the
// paper's physical hardware (Fast-Ethernet + TCP, Dolphin SCI + SISCI,
// Myrinet + BIP). Each protocol is a calibrated LogGP-style cost model;
// payload bytes genuinely move through simulated NIC pipes, and only time
// is virtual.
//
// Payloads ride in wire buffers (Buf) drawn from a free list (BufList),
// one per session, shared by its networks and processes (a Network made on
// its own has its own): power-of-two size classes, LIFO, unsynchronised
// because a simulation runs on one goroutine, never shrinking because it
// dies with its session. The network itself never touches a payload; the
// Packet comment says who owns Body between the sender's fill and the
// consumer's Release, and what becomes of packets nobody consumes.
package netsim

import "mpichmad/internal/vtime"

// MB is the paper's megabyte: "All results are expressed in Megabytes
// where 1 MB represents 2^20 bytes."
const MB = 1 << 20

// Params is the calibrated cost model of one protocol/network pair.
// The constants below are derived from Table 1, Table 2 and §5.2–§5.4 of
// the paper; the claims ledger's paper rows (internal/experiments) judge
// the error against each published figure.
type Params struct {
	// Protocol is the low-level API name: "tcp", "sisci", "bip", "shm",
	// "self".
	Protocol string
	// Network is the hardware name: "Fast-Ethernet", "SCI", "Myrinet".
	Network string

	// WireLatency is the one-way propagation + NIC traversal time.
	WireLatency vtime.Duration
	// Bandwidth is the sustained wire bandwidth in bytes/second.
	Bandwidth float64
	// NetworkBandwidth, when positive, is the network's aggregate capacity
	// in bytes/second shared by ALL directed pipes: every packet must also
	// reserve the shared trunk (FIFO, in injection order), so concurrent
	// transfers on different pipes queue behind each other instead of each
	// enjoying a private full-rate link. Zero keeps the historical
	// per-pair-pipe model (infinite aggregate capacity). Setting it to
	// Bandwidth models a single shared backbone segment — the
	// cluster-of-clusters inter-cluster link the two-level collectives are
	// designed around.
	NetworkBandwidth float64
	// SendOverhead is the CPU cost to inject one packet (syscall, PIO
	// setup, DMA descriptor, ...).
	SendOverhead vtime.Duration
	// RecvOverhead is the CPU cost to extract one delivered packet.
	RecvOverhead vtime.Duration

	// ExtraPackCost is the CPU cost of each pack/unpack operation beyond
	// the first in a Madeleine message (§5.2: 21 us on TCP, §5.3:
	// 6.5 us on SISCI, §5.4: 4.5 us on BIP). The first pack's cost is
	// folded into SendOverhead, matching the paper's raw baselines.
	ExtraPackCost vtime.Duration

	// CopyBandwidth is the effective memcpy rate (bytes/s) through this
	// driver's intermediate buffers, used whenever a protocol path
	// copies (eager receive, socket buffers, shared-memory segments).
	CopyBandwidth float64

	// AggLimit is the maximum number of payload bytes the driver
	// coalesces into a header packet before using a separate body
	// packet.
	AggLimit int

	// PollCost and PollInterval describe the protocol's polling
	// discipline (see marcel.PollSpec). TCP's expensive select is the
	// source of the Fig. 9 multi-protocol interference.
	PollCost     vtime.Duration
	PollInterval vtime.Duration

	// DeviceHandling is the per-message ch_mad handling overhead
	// (polling-thread dispatch, queue management, semaphore wakeup):
	// §5.2: 7 us TCP, §5.3: 8.5 us SCI, §5.4: 6.5 us BIP.
	DeviceHandling vtime.Duration

	// SwitchPoint is the network's native eager->rendez-vous threshold
	// in bytes (§4.2.2: 64 KB TCP, 8 KB SCI, 7 KB BIP).
	SwitchPoint int

	// LargeMsgPenalty is an extra per-message driver cost for messages
	// larger than LargeMsgLimit. Models BIP's internal small/large
	// message boundary, which the paper blames for "the particular
	// point for 1 KB-messages on the ch_mad curve" (§5.4).
	LargeMsgLimit   int
	LargeMsgPenalty vtime.Duration
}

// TxTime returns the wire serialization time for n payload bytes.
func (p *Params) TxTime(n int) vtime.Duration {
	if n <= 0 || p.Bandwidth <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / p.Bandwidth * float64(vtime.Second))
}

// TrunkTime returns the shared-trunk occupancy time for n payload bytes,
// zero when no aggregate capacity is configured.
func (p *Params) TrunkTime(n int) vtime.Duration {
	if n <= 0 || p.NetworkBandwidth <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / p.NetworkBandwidth * float64(vtime.Second))
}

// CopyTime returns the CPU time to memcpy n bytes through the driver's
// buffers.
func (p *Params) CopyTime(n int) vtime.Duration {
	if n <= 0 || p.CopyBandwidth <= 0 {
		return 0
	}
	return vtime.Duration(float64(n) / p.CopyBandwidth * float64(vtime.Second))
}

// LatencyBandwidth returns the link's headline cost pair — one-way
// latency in microseconds and sustained bandwidth in paper MB/s — the
// quantities the collective tuning table reasons about.
func (p *Params) LatencyBandwidth() (latUS, bwMBs float64) {
	return p.WireLatency.Micros(), p.Bandwidth / MB
}

// Delivery is the fixed cost of one message: the time from the start of a
// send to the message being in the receiving rank's hands, less its bytes'
// time — both overheads, the wire latency and the ch_mad device handling.
func (p *Params) Delivery() vtime.Duration {
	return p.SendOverhead + p.WireLatency + p.RecvOverhead + p.DeviceHandling
}

// PipelineSegment recommends a segment size for store-and-forward
// pipelining (segmented broadcast, gateway relaying) over this link:
// large enough that the per-segment fixed costs (Delivery) stay under ~10%
// of the segment's serialization time, clamped to [4 KB, SwitchPoint] so
// segments stay on the eager path.
func (p *Params) PipelineSegment() int {
	seg := int(10 * p.Delivery().Seconds() * p.Bandwidth)
	if seg < 4<<10 {
		seg = 4 << 10
	}
	if p.SwitchPoint > 0 && seg > p.SwitchPoint {
		seg = p.SwitchPoint
	}
	return seg
}

// FastEthernetTCP returns the calibrated TCP / Fast-Ethernet model. Its
// targets are the TCP figures of internal/experiments' published table, and
// a ch_p4 ceiling of ~10 MB/s.
func FastEthernetTCP() Params {
	return Params{
		Protocol:       "tcp",
		Network:        "Fast-Ethernet",
		WireLatency:    vtime.Microseconds(57),
		Bandwidth:      11.2 * MB,
		SendOverhead:   vtime.Microseconds(30),
		RecvOverhead:   vtime.Microseconds(30),
		ExtraPackCost:  vtime.Microseconds(21),
		CopyBandwidth:  187 * MB,
		AggLimit:       1460, // one ethernet MSS coalesced with the header
		PollCost:       vtime.Microseconds(8),
		PollInterval:   vtime.Microseconds(25),
		DeviceHandling: vtime.Microseconds(7),
		SwitchPoint:    64 << 10,
	}
}

// SCISISCI returns the calibrated SISCI / SCI (Dolphin D310) model. Its
// targets are the SISCI figures of internal/experiments' published table;
// switch point 8 KB.
func SCISISCI() Params {
	return Params{
		Protocol:       "sisci",
		Network:        "SCI",
		WireLatency:    vtime.Microseconds(2.0),
		Bandwidth:      82.6 * MB,
		SendOverhead:   vtime.Microseconds(1.2),
		RecvOverhead:   vtime.Microseconds(1.3),
		ExtraPackCost:  vtime.Microseconds(6.5),
		CopyBandwidth:  350 * MB,
		AggLimit:       64, // PIO write coalescing window
		PollCost:       vtime.Microseconds(0.3),
		PollInterval:   0, // cheap cache-coherent flag poll: wake-on-arrival
		DeviceHandling: vtime.Microseconds(8.5),
		SwitchPoint:    8 << 10,
	}
}

// MyrinetBIP returns the calibrated BIP / Myrinet (LANai 4.3) model. Its
// targets are the BIP figures of internal/experiments' published table;
// switch point 7 KB; 1 KB dip from BIP's internal small-message boundary.
func MyrinetBIP() Params {
	return Params{
		Protocol:        "bip",
		Network:         "Myrinet",
		WireLatency:     vtime.Microseconds(4.2),
		Bandwidth:       122 * MB,
		SendOverhead:    vtime.Microseconds(2.5),
		RecvOverhead:    vtime.Microseconds(2.5),
		ExtraPackCost:   vtime.Microseconds(4.5),
		CopyBandwidth:   350 * MB,
		AggLimit:        128,
		PollCost:        vtime.Microseconds(0.4),
		PollInterval:    0,
		DeviceHandling:  vtime.Microseconds(6.5),
		SwitchPoint:     7 << 10,
		LargeMsgLimit:   1 << 10,
		LargeMsgPenalty: vtime.Microseconds(18),
	}
}

// SharedMemory returns the smp_plug intra-node model: two memcpy passes
// through a shared segment on a dual-PII 450.
func SharedMemory() Params {
	return Params{
		Protocol:       "shm",
		Network:        "intra-node",
		WireLatency:    vtime.Microseconds(0.8),
		Bandwidth:      175 * MB, // in-copy + out-copy of a 350 MB/s memcpy
		SendOverhead:   vtime.Microseconds(0.5),
		RecvOverhead:   vtime.Microseconds(0.5),
		ExtraPackCost:  vtime.Microseconds(0.3),
		CopyBandwidth:  350 * MB,
		AggLimit:       4096,
		PollCost:       vtime.Microseconds(0.2),
		PollInterval:   0,
		DeviceHandling: vtime.Microseconds(1.0),
		SwitchPoint:    16 << 10,
	}
}

// Loopback returns the ch_self intra-process model: one memcpy.
func Loopback() Params {
	return Params{
		Protocol:       "self",
		Network:        "intra-process",
		WireLatency:    vtime.Microseconds(0.1),
		Bandwidth:      350 * MB,
		SendOverhead:   vtime.Microseconds(0.2),
		RecvOverhead:   vtime.Microseconds(0.2),
		CopyBandwidth:  350 * MB,
		AggLimit:       1 << 30,
		DeviceHandling: vtime.Microseconds(0.5),
		SwitchPoint:    1 << 30, // always eager: no remote side to rendez-vous with
	}
}

// ByProtocol returns the preset for a protocol name, ok=false if unknown.
func ByProtocol(name string) (Params, bool) {
	switch name {
	case "tcp":
		return FastEthernetTCP(), true
	case "sisci", "sci":
		return SCISISCI(), true
	case "bip", "myrinet":
		return MyrinetBIP(), true
	case "shm":
		return SharedMemory(), true
	case "self":
		return Loopback(), true
	}
	return Params{}, false
}
