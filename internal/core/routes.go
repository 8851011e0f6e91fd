package core

import (
	"mpichmad/internal/madeleine"
	"mpichmad/internal/netsim"
)

// Route tells the device how to reach a destination rank: which Madeleine
// channel to use and the next-hop node on that channel. When the next hop
// is a gateway (forwarding extension, §6), NextNode differs from the
// destination's own node and intermediate devices relay the message.
type Route struct {
	Channel  *madeleine.Channel
	NextNode string

	// Hops is the full path length to the destination as computed by the
	// routing subsystem (internal/route): 1 for a direct neighbour, more
	// when gateways relay. Zero means unknown (treated as direct).
	Hops int

	// SegBytes is the relay pipelining segment for multi-hop routes: the
	// bottleneck network's recommended pipeline segment along the path
	// (route.PathInfo.Segment), also the stripe segment of a direct rail
	// whose pair has alternates. Rendez-vous bodies larger than this are shipped as independent
	// per-segment messages so gateways overlap inbound and outbound
	// transfers instead of store-and-forwarding the whole body. Zero
	// disables segmentation.
	SegBytes int

	// Cost is the planner's wire cost of the full path in seconds at the
	// reference payload (route.PathInfo.Cost): what rail installation
	// ranks and caps alternates by. Zero means unknown.
	Cost float64

	// BottleneckCost is the most expensive single hop of the path at the
	// reference payload (route.PathInfo.Bottleneck) — the pacing rate
	// of a pipelined segment train on this rail. The striper weights each
	// rail's share by 1/BottleneckCost (falling back to 1/Cost, then
	// equal shares): two rails whose bottleneck is one bridge each split
	// evenly no matter how many cheap hops the longer one adds.
	BottleneckCost float64

	// SwitchBytes is the per-link eager->rendez-vous threshold of this
	// route: the smallest native switch point of the networks along the
	// path (route.PathInfo.Switch), so a payload at or below it rides
	// the eager path on every hop. Zero means unknown; the device falls
	// back to its elected device-wide threshold.
	SwitchBytes int

	// Class names the route's device class ("smp", "san", "wan" — the
	// dominating tier along the path, route.PathInfo.Class), letting
	// measured per-class threshold overrides apply to the right links.
	// Empty means unclassified.
	Class string
}

// SetRails installs the full ordered set of edge-disjoint routes toward a
// destination: rs[0] becomes the primary route (what Send and control
// traffic use), the rest are the extra rails the striper spreads large
// rendez-vous bodies over. An empty rs withdraws the destination: it stays
// unroutable until the next SetRails or SetRailSource.
//
//madlint:ignore deadexport tests in another package call it (mpi's staging and lane tests withdraw a route mid-run)
func (d *Device) SetRails(rank int, rs []Route) {
	d.rails[rank] = append([]Route(nil), rs...)
}

// SetRailSource installs a lazy rail resolver and drops every cached
// route: subsequent lookups resolve destinations on first use through fn
// (which hands over the slice it returns) and cache the result. Called by
// the cluster wiring at build time and again on every re-plan (the
// reinstall-everything of an eager scheme becomes an O(1) cache flush).
func (d *Device) SetRailSource(fn func(dst int) []Route) {
	d.railSource = fn
	d.rails = make(map[int][]Route)
}

// Rails returns every route toward a destination, primary first; empty
// when the destination is unroutable. It is the one accessor of the rail
// cache: a destination seen for the first time is resolved through the
// rail source. Resolution is pure computation (no virtual-time events), so
// it is safe from polling threads and cannot perturb schedule determinism —
// lazily resolved sessions replay eagerly wired ones exactly.
func (d *Device) Rails(dst int) []Route {
	rs, cached := d.rails[dst]
	if !cached && d.railSource != nil {
		rs = d.railSource(dst)
		d.rails[dst] = rs
	}
	return rs
}

// RouteTo returns the primary route toward a destination world rank,
// ok=false when the destination is unroutable from this process.
func (d *Device) RouteTo(dst int) (Route, bool) {
	rs := d.Rails(dst)
	if len(rs) == 0 {
		return Route{}, false
	}
	return rs[0], true
}

// RouteNet returns the network metadata of the channel that carries
// traffic toward dst: the channel name and its calibrated cost model.
// Topology-aware layers (hierarchy discovery, tuning tables, diagnostics)
// use it to tell fast intra-cluster routes from slow backbone ones.
func (d *Device) RouteNet(dst int) (name string, params netsim.Params, ok bool) {
	rt, ok := d.RouteTo(dst)
	if !ok || rt.Channel == nil {
		return "", netsim.Params{}, false
	}
	return rt.Channel.Name, rt.Channel.Params, true
}

// ElectSwitchPoint applies the §4.2.2 policy to pick the device's single
// threshold: "the switch point value for the ch_mad device is 8 KB if SCI
// is a network supported within the material configuration. If not, the
// switch point of the most performant network is elected."
func (d *Device) ElectSwitchPoint() int {
	best := 0
	var bestBW float64 = -1
	for _, ch := range d.channels {
		p := ch.Params
		if p.Protocol == "sisci" {
			d.switchPoint = p.SwitchPoint
			return d.switchPoint
		}
		if p.Bandwidth > bestBW {
			bestBW = p.Bandwidth
			best = p.SwitchPoint
		}
	}
	if best == 0 {
		best = 64 << 10
	}
	d.switchPoint = best
	return best
}

// SetSwitchPoint overrides the elected threshold (ablation X1) with a
// uniform value that then governs every link, per-link resolution
// included.
func (d *Device) SetSwitchPoint(n int) {
	d.switchPoint = n
	d.forcedSwitch = true
}

// SwitchPointTo resolves the eager->rendez-vous threshold per link, from
// the route toward dst. Resolution order: a forced uniform value
// (SetSwitchPoint), then a measured threshold for the route's device class
// (ClassSwitch), then the route's native SwitchBytes (smallest switch point
// along its path), then the elected device-wide fallback — which is all an
// unroutable destination's zero Route leaves.
func (d *Device) SwitchPointTo(dst int) int {
	if d.forcedSwitch {
		return d.switchPoint
	}
	rt, _ := d.RouteTo(dst)
	if sp := d.ClassSwitch[rt.Class]; rt.Class != "" && sp > 0 {
		return sp
	}
	if rt.SwitchBytes > 0 {
		return rt.SwitchBytes
	}
	return d.switchPoint
}
