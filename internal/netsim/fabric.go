package netsim

import (
	"fmt"

	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// Packet is one unit of transfer on a simulated link. Header bytes were
// coalesced/copied by the sender (aggregation buffer); Body bytes are the
// bulk payload, injected without a time charge to model zero-copy injection
// (DMA from user memory).
//
// Ownership of the payload: the network never reads, copies or keeps
// Header and Body, it only counts their lengths, so they belong to the
// sending device until delivery and to the receiving one afterwards. What
// Body points at is therefore the devices' business alone: Madeleine's may
// be the sending application's own memory until that sender's EndPacking
// returns (a loan, see madeleine.Pack), a wire buffer afterwards, or the
// receiver's memory once the body has landed there. The other devices of
// this tree ship payloads in buffers of a BufList (the network's own,
// Network.Bufs) and put the *Buf that Body or Header aliases in Meta: the
// sender fills it, the packet owns it in flight, and whoever consumes the
// packet on the far side either copies out and Releases it or takes it over
// and Releases it later (an eager landing area, a gateway's relay store). A
// packet the fault plan drops, or one still queued when a session is torn
// down, is never consumed: its buffer does not come home and the garbage
// collector takes it with the session.
type Packet struct {
	Src, Dst string // endpoint node names
	Kind     int    // driver/device-defined discriminator
	Header   []byte
	Body     []byte
	Meta     interface{} // device-defined out-of-band data (see above)

	Seq      uint64
	SentAt   vtime.Time
	ArriveAt vtime.Time
}

// WireSize returns the number of bytes the packet occupies on the wire.
func (p *Packet) WireSize() int { return len(p.Header) + len(p.Body) }

// Faults configures deterministic fault injection on a network, used by
// reliability tests. The zero value injects nothing.
type Faults struct {
	// DropEvery drops every Nth packet (1-based count) when > 0.
	DropEvery int
	// JitterPct adds up to ±JitterPct% of WireLatency of deterministic
	// pseudo-random jitter to each delivery. In-order delivery per
	// directed pair is still enforced (packets never overtake).
	JitterPct int
	// Seed seeds the jitter PRNG (default 1).
	Seed int64
}

// Stats aggregates per-network traffic counters.
type Stats struct {
	Packets    uint64
	Bytes      uint64
	Dropped    uint64
	MaxInlight int

	// TrunkQueueDelay accumulates, over all packets, the time each spent
	// waiting for the shared trunk behind traffic of *other* pipes (only
	// meaningful when Params.NetworkBandwidth > 0). Pure contention cost:
	// a packet's own serialization and its pipe's in-order backlog are not
	// counted.
	TrunkQueueDelay vtime.Duration
	// TrunkPeak is the peak number of packets simultaneously occupying or
	// waiting for the shared trunk.
	TrunkPeak int
}

// Network is one protocol domain (e.g. "the SCI fabric"): a set of
// endpoints with full pairwise connectivity, a shared cost model, and
// per-directed-pair FIFO pipes.
type Network struct {
	S      *vtime.Scheduler
	Name   string
	Params Params
	Faults Faults

	endpoints map[string]*Endpoint
	pipes     map[[2]string]*pipe
	seq       uint64
	rng       *PRNG
	Stats     Stats
	bufs      BufList

	// Trace, when set, records trunk-contention events on TraceTrack
	// (the network's own Chrome track); Metrics accumulates per-node
	// trunk wait time. Both nil-safe; set by the cluster wiring.
	Trace      *trace.Tracer
	TraceTrack int
	Metrics    *trace.Registry

	// Shared-trunk arbiter state (Params.NetworkBandwidth > 0): the trunk
	// is a single FIFO resource every packet must reserve, in injection
	// order, before its pipe serialization can complete. trunkEnds holds
	// the completion times of packets still in or waiting for the trunk —
	// monotone, because reservations are FIFO — as a head-index ring:
	// live entries are trunkEnds[trunkHead:], the finished front is pruned
	// incrementally by advancing trunkHead at Send time (no per-packet
	// callback, no reslicing that strands the backing array), and the dead
	// prefix is compacted once it dominates so memory stays bounded by the
	// peak trunk occupancy rather than the total packet count.
	trunkBusyUntil vtime.Time
	trunkEnds      []vtime.Time
	trunkHead      int
}

// trunkOccupancy prunes completed reservations off the front of the ring
// and returns the number of packets still in or waiting for the trunk.
func (n *Network) trunkOccupancy() int {
	for n.trunkHead < len(n.trunkEnds) && n.trunkEnds[n.trunkHead] <= n.S.Now() {
		n.trunkHead++
	}
	if n.trunkHead == len(n.trunkEnds) {
		n.trunkEnds, n.trunkHead = n.trunkEnds[:0], 0
	} else if n.trunkHead >= 64 && n.trunkHead > len(n.trunkEnds)-n.trunkHead {
		m := copy(n.trunkEnds, n.trunkEnds[n.trunkHead:])
		n.trunkEnds, n.trunkHead = n.trunkEnds[:m], 0
	}
	return len(n.trunkEnds) - n.trunkHead
}

// NewNetwork creates a network with the given cost model.
func NewNetwork(s *vtime.Scheduler, name string, p Params) *Network {
	return &Network{
		S:         s,
		Name:      name,
		Params:    p,
		endpoints: make(map[string]*Endpoint),
		pipes:     make(map[[2]string]*pipe),
	}
}

// Bufs returns the network's free list of wire buffers.
func (n *Network) Bufs() *BufList { return &n.bufs }

// SetFaults installs a fault plan (tests only). The jitter stream is a
// self-contained seeded PRNG: two networks with equal seeds produce
// identical jitter no matter what else the process does.
//
//madlint:ignore deadexport the fault model of ROADMAP item 6 drives it
func (n *Network) SetFaults(f Faults) {
	n.Faults = f
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	n.rng = NewPRNG(seed)
}

// pipe models the directed wire between two endpoints: sender-side
// serialization plus in-order arrival enforcement.
type pipe struct {
	busyUntil   vtime.Time
	lastArrival vtime.Time
	count       uint64
}

// Endpoint is one NIC attached to a network. Deliveries invoke OnDeliver
// in scheduler context (it must not block; typically it pushes into a
// vtime.Queue and returns).
type Endpoint struct {
	Net  *Network
	Node string
	// OnDeliver receives each arriving packet at its arrival time.
	OnDeliver func(*Packet)
	// Landing, when the attached device sets it, answers a sender on this
	// network that is about to let go of the n-byte body it numbers seq
	// among those it has sent this node (the numbering is the devices'):
	// the memory a reader blocked on exactly that body has designated for
	// it, nil when there is none. It is what a NIC depositing at a posted
	// address knows; the network itself never calls it.
	Landing func(src string, seq uint64, n int) []byte
}

// Attach creates (or returns) the endpoint for a node on this network.
func (n *Network) Attach(node string) *Endpoint {
	if ep, ok := n.endpoints[node]; ok {
		return ep
	}
	ep := &Endpoint{Net: n, Node: node}
	n.endpoints[node] = ep
	return ep
}

// Endpoint returns the endpoint for node, ok=false if not attached.
func (n *Network) Endpoint(node string) (*Endpoint, bool) {
	ep, ok := n.endpoints[node]
	return ep, ok
}

// Send injects pkt onto the wire from ep toward pkt.Dst. The caller has
// already charged any CPU costs (send overhead, copies, packing); Send
// only models wire serialization and propagation, then delivers to the
// destination endpoint's OnDeliver at the arrival instant.
//
// Must be called from task context or an At callback.
func (ep *Endpoint) Send(pkt *Packet) error {
	n := ep.Net
	dst, ok := n.endpoints[pkt.Dst]
	if !ok {
		return fmt.Errorf("netsim: %s: no endpoint %q on network %q", ep.Node, pkt.Dst, n.Name)
	}
	if dst == ep {
		return fmt.Errorf("netsim: %s: self-send on network %q (use the loopback device)", ep.Node, n.Name)
	}
	pkt.Src = ep.Node
	n.seq++
	pkt.Seq = n.seq
	pkt.SentAt = n.S.Now()

	key := [2]string{ep.Node, pkt.Dst}
	pp := n.pipes[key]
	if pp == nil {
		pp = &pipe{}
		n.pipes[key] = pp
	}
	pp.count++

	n.Stats.Packets++
	n.Stats.Bytes += uint64(pkt.WireSize())

	if n.Faults.DropEvery > 0 && pp.count%uint64(n.Faults.DropEvery) == 0 {
		n.Stats.Dropped++
		return nil // silently lost; reliability layers must recover
	}

	txStart := n.S.Now()
	if pp.busyUntil > txStart {
		txStart = pp.busyUntil
	}
	ser := n.Params.TxTime(pkt.WireSize())
	if n.Params.NetworkBandwidth > 0 {
		// Reserve the shared trunk, FIFO in injection order: waiting for
		// other pipes' traffic to clear is the contention cost the
		// per-pair model never charged.
		if n.trunkBusyUntil > txStart {
			wait := vtime.Duration(n.trunkBusyUntil - txStart)
			n.Stats.TrunkQueueDelay += wait
			n.Metrics.Add("trunk.wait.ns", ep.Node, int64(wait))
			if n.Trace != nil {
				n.Trace.Instant(n.TraceTrack, trace.KNet, "trunk.wait", trace.Args{
					Bytes: int64(pkt.WireSize()), Val: int64(wait), Class: ep.Node,
				})
			}
			txStart = n.trunkBusyUntil
		}
		trunkSer := n.Params.TrunkTime(pkt.WireSize())
		if trunkSer > ser {
			ser = trunkSer // a trunk slower than the pipes also bounds the packet
		}
		trunkEnd := txStart.Add(trunkSer)
		n.trunkBusyUntil = trunkEnd
		occ := n.trunkOccupancy() + 1
		n.trunkEnds = append(n.trunkEnds, trunkEnd)
		if occ > n.Stats.TrunkPeak {
			n.Stats.TrunkPeak = occ
			n.Metrics.SetMax("trunk.peak", n.Name, int64(occ))
		}
		if n.Trace != nil {
			n.Trace.Counter(n.TraceTrack, trace.KNet, "trunk.occ", int64(occ))
		}
	}
	txEnd := txStart.Add(ser)
	pp.busyUntil = txEnd

	lat := n.Params.WireLatency
	if n.Faults.JitterPct > 0 && n.rng != nil {
		span := int64(lat) * int64(n.Faults.JitterPct) / 100
		if span > 0 {
			lat += vtime.Duration(n.rng.Int63n(2*span+1) - span)
		}
	}
	arrive := txEnd.Add(lat)
	if arrive < pp.lastArrival {
		arrive = pp.lastArrival // no overtaking on a directed pair
	}
	pp.lastArrival = arrive
	pkt.ArriveAt = arrive

	n.S.At(arrive, func() {
		if dst.OnDeliver == nil {
			panic(fmt.Sprintf("netsim: endpoint %s/%s has no OnDeliver", n.Name, dst.Node))
		}
		dst.OnDeliver(pkt)
	})
	return nil
}
