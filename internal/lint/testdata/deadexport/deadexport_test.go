package deadexport

import "testing"

// A test's reference does not keep OnlyTested alive.
func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 {
		t.Fatal("OnlyTested")
	}
}
