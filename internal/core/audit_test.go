package core

import (
	"strings"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// TestAuditCleanDevice: a freshly wired device is at rest and passes.
func TestAuditCleanDevice(t *testing.T) {
	d := New(nil, nil, 3)
	if err := d.AuditInvariants(); err != nil {
		t.Fatalf("clean device failed audit: %v", err)
	}
}

// TestAuditCatchesLeakedState seeds one violation per invariant family and
// checks each is named in the report.
func TestAuditCatchesLeakedState(t *testing.T) {
	s := vtime.New()
	d := New(nil, nil, 3)
	d.rndvTx[7] = rndvSend{sr: &adi.SendReq{}, attempts: 2}
	d.rndvRx[9] = &rndvState{env: adi.Envelope{Len: 4096}, remaining: 1024}
	d.relayInFlight = 1
	d.relayParking = 1
	d.RelayWindow = 4
	d.relayCredits = vtime.NewSem(s, "audit.relay", 2) // 2 of 4 credits leaked
	d.RelayQueuePeak = 9
	d.RelayBytes = 128 // with zero forwards

	err := d.AuditInvariants()
	if err == nil {
		t.Fatal("wedged device passed audit")
	}
	for _, want := range []string{
		"ch_mad[3]",
		"pending (req ids [7])",
		"stripe reassembly for sync 9 incomplete: 1024 of 4096",
		"still held for re-emission",
		"parked for a relay credit",
		"credit window not back to full: 2 of 4",
		"peak 9 exceeded the credit window 4",
		"RelayBytes=128 with zero forwards",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("audit report missing %q:\n%v", want, err)
		}
	}
}

// TestAuditFailureIncludesFlightTail: a seeded violation on a traced
// device carries the flight recorder's last events in the error — the
// exchange that leaked the state is in the report, not just the leak.
func TestAuditFailureIncludesFlightTail(t *testing.T) {
	d := New(nil, nil, 3)
	tr := trace.New(func() vtime.Time { return 1500 })
	tr.BeginSession("audit")
	d.Trace = tr
	d.TraceTrack = 3
	tr.Instant(3, trace.KRndv, "rndv.req", trace.Args{HasPeer: true, Src: 3, Dst: 8, Bytes: 4096, Seq: 7})
	tr.Instant(3, trace.KCredit, "relay.busy", trace.Args{HasPeer: true, Src: 3, Dst: 8, Seq: 7})
	d.rndvTx[7] = rndvSend{sr: &adi.SendReq{}} // the leak the events explain

	err := d.AuditInvariants()
	if err == nil {
		t.Fatal("seeded device passed audit")
	}
	for _, want := range []string{
		"ch_mad[3]",
		"pending (req ids [7])",
		"last 2 trace events before the audit",
		"rndv.req src=3 dst=8 bytes=4096 seq=7",
		"relay.busy",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("audit report missing %q:\n%v", want, err)
		}
	}

	// Untraced devices keep the classic one-line report.
	d2 := New(nil, nil, 3)
	d2.rndvTx[7] = rndvSend{sr: &adi.SendReq{}}
	if err := d2.AuditInvariants(); err == nil ||
		strings.Contains(err.Error(), "trace events") {
		t.Fatalf("untraced audit changed shape: %v", err)
	}
}

// TestAuditWholeBodyRndvOpen: a rendez-vous that never completed reports
// as an open sync, not a stripe.
func TestAuditWholeBodyRndvOpen(t *testing.T) {
	d := New(nil, nil, 0)
	d.rndvRx[1] = &rndvState{env: adi.Envelope{Len: 64}, remaining: 64}
	err := d.AuditInvariants()
	if err == nil || !strings.Contains(err.Error(), "rendez-vous sync 1 still open (64 bytes expected)") {
		t.Fatalf("want open-sync report, got %v", err)
	}
}
