package core

import "testing"

// TestSwitchPointToResolution pins the per-link threshold resolution
// order: forced uniform value (SetSwitchPoint), then the measured
// per-class override, then the route's native SwitchBytes,
// then the elected device-wide fallback.
func TestSwitchPointToResolution(t *testing.T) {
	d := New(nil, nil, 0)
	d.switchPoint = 8 << 10 // stand-in for the elected fallback

	d.AddRoute(1, Route{SwitchBytes: 64 << 10, Class: "wan"})
	d.AddRoute(2, Route{Class: "san"}) // no native threshold recorded

	if got := d.SwitchPointTo(9); got != 8<<10 {
		t.Errorf("unroutable dst: SwitchPointTo = %d, want elected 8K", got)
	}
	if got := d.SwitchPointTo(1); got != 64<<10 {
		t.Errorf("native SwitchBytes: SwitchPointTo = %d, want 64K", got)
	}
	if got := d.SwitchPointTo(2); got != 8<<10 {
		t.Errorf("class without override or SwitchBytes: SwitchPointTo = %d, want elected 8K", got)
	}

	// A measured per-class override beats the route's native threshold.
	d.SetClassSwitchPoint("wan", 16<<10)
	if got := d.SwitchPointTo(1); got != 16<<10 {
		t.Errorf("class override: SwitchPointTo = %d, want 16K", got)
	}
	if got := d.classSwitch["wan"]; got != 16<<10 {
		t.Errorf("ClassSwitchPoints[wan] = %d, want 16K", got)
	}
	// Removing the override falls back to the native threshold.
	d.SetClassSwitchPoint("wan", 0)
	if got := d.SwitchPointTo(1); got != 64<<10 {
		t.Errorf("override removed: SwitchPointTo = %d, want 64K", got)
	}

	// A forced SetSwitchPoint wins over everything: the uniform ablation
	// pins every link to the elected device-wide value this way...
	d.SetClassSwitchPoint("wan", 16<<10)
	d.SetSwitchPoint(d.SwitchPoint())
	if got := d.SwitchPointTo(1); got != 8<<10 {
		t.Errorf("uniform ablation: SwitchPointTo = %d, want 8K", got)
	}
	// ... and ablation X1 to a value of its choosing.
	d.SetSwitchPoint(4 << 10)
	if got := d.SwitchPointTo(1); got != 4<<10 {
		t.Errorf("forced uniform: SwitchPointTo = %d, want 4K", got)
	}
}
