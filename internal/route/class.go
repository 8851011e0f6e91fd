package route

import "mpichmad/internal/netsim"

// DeviceClass is the transport tier of one edge (or path) in the per-link
// device mux: the paper's point is that a single MPI session drives a
// *different* device per link — ch_self within a process, smp_plug within
// a node, the SAN driver (SISCI, BIP) within a cluster, TCP between
// clusters — so topology discovery classifies every edge and the routing,
// tuning and hierarchy layers reason per class instead of assuming one
// uniform transport.
type DeviceClass int

const (
	// ClassSelf is the chself-class intra-process loopback tier.
	ClassSelf DeviceClass = iota
	// ClassSMP is the smp-class intra-node shared-memory tier.
	ClassSMP
	// ClassSAN is the system-area-network tier carrying intra-cluster
	// traffic (SISCI/SCI, BIP/Myrinet, and any other non-TCP fabric).
	ClassSAN
	// ClassWAN is the TCP-class commodity tier carrying inter-cluster
	// (backbone, gateway) traffic.
	ClassWAN

	numDeviceClasses
)

// deviceClassNames indexes DeviceClass; the strings are the stable
// identifiers used in tune tables and core.Route.Class tags.
var deviceClassNames = [numDeviceClasses]string{"self", "smp", "san", "wan"}

// String returns the class's stable name ("self", "smp", "san", "wan").
func (c DeviceClass) String() string {
	if c < 0 || c >= numDeviceClasses {
		return "unknown"
	}
	return deviceClassNames[c]
}

// ClassOf maps a calibrated cost model to its device class by protocol:
// "self" and "shm" name the loopback and shared-memory tiers, "tcp" is
// the commodity inter-cluster tier, and everything else (sisci, bip,
// custom SAN params) is the system-area tier.
func ClassOf(p netsim.Params) DeviceClass {
	switch p.Protocol {
	case "self":
		return ClassSelf
	case "shm":
		return ClassSMP
	case "tcp":
		return ClassWAN
	}
	return ClassSAN
}
