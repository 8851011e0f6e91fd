// Package deadexport is a madlint self-test fixture for the deadexport
// analyzer: four exports below are referenced by no non-test file and are
// flagged; an interface method name and a suppression keep two others.
package deadexport

// Shape is implemented by square; its method names keep any method of the
// same name alive.
type Shape interface {
	Area() int
}

type square struct{ side int }

var _ Shape = square{}

// Area is called only through Shape: not flagged.
func (s square) Area() int { return s.side * s.side }

// Perimeter is called by nothing, and no interface declares it: flagged.
func (s square) Perimeter() int { return 4 * s.side }

// Unused is called by nothing: flagged.
func Unused() int { return 1 }

// OnlyTested is called by deadexport_test.go alone: flagged.
func OnlyTested() int { return 2 }

// Self calls only itself: flagged.
func Self(n int) int {
	if n <= 0 {
		return 0
	}
	return Self(n - 1)
}

// Kept is called by nothing but says why it stays: not flagged.
//
//madlint:ignore deadexport a caller outside the module uses it
func Kept() int { return 3 }
