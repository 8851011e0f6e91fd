package core

import (
	"fmt"
	"sort"
	"strings"
)

// AuditInvariants implements adi.Auditor: the Finalize-time counterpart of
// the madlint static suite. Once a session's traffic has drained, every
// rendez-vous table must be empty and every relay credit home; anything
// left over is a protocol bug (a leaked credit, a half-reassembled stripe,
// a rendez-vous that never completed) that would surface at scale as a
// hang or a silent miscount. Returns nil when the device is clean,
// otherwise an error enumerating every violated invariant.
//
// Called by the cluster session after a clean run; callable from tests on
// hand-wired devices too.
func (d *Device) AuditInvariants() error {
	var bad []string

	// Rendez-vous tables: no sends parked awaiting a SendOK, no receiver
	// syncs open, no stripe reassembly short of bytes.
	if n := len(d.rndvTx); n != 0 {
		bad = append(bad, fmt.Sprintf("%d rendez-vous send(s) still pending (req ids %v)",
			n, sortedKeys(d.rndvTx)))
	}
	for _, sync := range sortedKeys(d.rndvRx) {
		st := d.rndvRx[sync]
		if st.remaining > 0 && st.remaining < st.env.Len {
			bad = append(bad, fmt.Sprintf("stripe reassembly for sync %d incomplete: %d of %d bytes outstanding",
				sync, st.remaining, st.env.Len))
		} else {
			bad = append(bad, fmt.Sprintf("rendez-vous sync %d still open (%d bytes expected)",
				sync, st.env.Len))
		}
	}

	// Relay credit window: every stored body released its credit, no
	// polling thread is parked, and the observed peak respected the bound.
	if d.relayInFlight != 0 {
		bad = append(bad, fmt.Sprintf("%d relayed body(ies) still held for re-emission", d.relayInFlight))
	}
	if d.relayParking != 0 {
		bad = append(bad, fmt.Sprintf("%d polling thread(s) still parked for a relay credit", d.relayParking))
	}
	if d.relayCredits != nil {
		if got := d.relayCredits.Value(); got != d.RelayWindow {
			bad = append(bad, fmt.Sprintf("relay credit window not back to full: %d of %d credits free",
				got, d.RelayWindow))
		}
		if w := d.relayCredits.Waiting(); w != 0 {
			bad = append(bad, fmt.Sprintf("%d task(s) still queued on the relay credit semaphore", w))
		}
	}
	if d.RelayWindow > 0 && d.RelayQueuePeak > d.RelayWindow {
		bad = append(bad, fmt.Sprintf("relay queue peak %d exceeded the credit window %d",
			d.RelayQueuePeak, d.RelayWindow))
	}

	// Counter consistency: a device that never relayed must not have
	// accumulated relay state.
	if d.NForwarded == 0 && d.RelayBytes != 0 {
		bad = append(bad, fmt.Sprintf("RelayBytes=%d with zero forwards", d.RelayBytes))
	}

	if len(bad) == 0 {
		return nil
	}
	msg := fmt.Sprintf("ch_mad[%d] invariant audit: %s", d.rank, strings.Join(bad, "; "))
	// With a tracer attached, the flight recorder's tail travels with
	// the failure: the last events before the leaked state are usually
	// the ones that leaked it. Tail is nil-safe, so an untraced device
	// reports exactly as before.
	if tail := d.Trace.Tail(auditTailEvents); len(tail) > 0 {
		msg += fmt.Sprintf("\nlast %d trace events before the audit:\n  %s",
			len(tail), strings.Join(tail, "\n  "))
	}
	return fmt.Errorf("%s", msg)
}

// auditTailEvents bounds the flight-recorder dump an audit failure
// carries — enough to see the failing exchange without drowning the
// invariant list.
const auditTailEvents = 16

// sortedKeys returns a map's uint32 keys ascending — deterministic audit
// output (a map-ordered dump would itself violate the determinism rules).
func sortedKeys[V any](m map[uint32]V) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
