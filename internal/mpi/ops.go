package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Op is a reduction operation over packed element buffers: it folds src
// into dst element-wise (dst = dst OP src), interpreting bytes per the
// datatype. All predefined ops are commutative and associative.
type Op interface {
	Name() string
	// Apply folds count elements of dt from src into dst in place.
	Apply(dst, src []byte, count int, dt Datatype) error
}

// Predefined reduction operations. Each is a pointer, so ops compare and
// key maps by identity.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference"): every predefined Op
var (
	OpSum  Op = &op{"MPI_SUM", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }}
	OpProd Op = &op{"MPI_PROD", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }}
	OpMin  Op = &op{"MPI_MIN", func(a, b int64) int64 { return min(a, b) }, math.Min}
	OpMax  Op = &op{"MPI_MAX", func(a, b int64) int64 { return max(a, b) }, math.Max}
	OpBAnd Op = &op{"MPI_BAND", func(a, b int64) int64 { return a & b }, nil}
	OpBOr  Op = &op{"MPI_BOR", func(a, b int64) int64 { return a | b }, nil}
	OpBXor Op = &op{"MPI_BXOR", func(a, b int64) int64 { return a ^ b }, nil}
	OpLAnd Op = &op{"MPI_LAND", func(a, b int64) int64 { return b2i(a != 0 && b != 0) },
		func(a, b float64) float64 { return float64(b2i(a != 0 && b != 0)) }}
	OpLOr Op = &op{"MPI_LOR", func(a, b int64) int64 { return b2i(a != 0 || b != 0) },
		func(a, b float64) float64 { return float64(b2i(a != 0 || b != 0)) }}
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// op is every predefined operator: its integer and float arithmetic, the
// float one nil for the bitwise operators, which are defined on integers
// only. Integers combine in their own width (which is what widening to
// int64 and truncating back computes), Byte and Char unsigned, Float32
// widened to float64 and rounded back, Min/Max on floats by
// math.Min/math.Max (NaN and signed-zero rules included).
type op struct {
	name string
	fi   func(a, b int64) int64
	ff   func(a, b float64) float64
}

func (o *op) Name() string { return o.name }

func f64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
}

// geLanes is 0xff in each byte lane where a >= b (unsigned), else 0: the
// top bits decide where they differ, else the low seven bits, by a
// subtraction that cannot borrow across a lane.
func geLanes(a, b uint64) uint64 {
	ge := (a&^b | ^(a^b)&((a|lanesHi)-b&^lanesHi)) & lanesHi
	return (ge >> 7) * 0xff
}

const lanesHi = 0x8080808080808080 // the top bit of each byte lane

// Apply combines element by element, calling the operator's function. Two
// pairs have loops of their own, because the traffic reduces with them:
// Float64 Sum (the workloads' Allreduce) four elements a step, and Byte or
// Char Max (the MPI_Init sweep's probe) eight lanes a word. Each slices its
// windows to length and capacity under a test of both lengths, so the
// compiler proves every access; the elements they leave over run below.
func (o *op) Apply(dst, src []byte, count int, dt Datatype) error {
	if dt.base != nil || o.ff == nil && (dt == Float32 || dt == Float64) {
		return fmt.Errorf("mpi: %s not defined for datatype %s", o.name, dt.Name())
	}
	le, w := binary.LittleEndian, dt.Size()
	d := dst[:w*count]
	s := src[:len(d)]
	i := 0 // the bytes a loop of its own combined
	switch {
	case Op(o) == OpSum && dt == Float64:
		for ; i+32 <= len(d) && i+32 <= len(s); i += 32 {
			a, b := d[i:i+32:i+32], s[i:i+32:i+32]
			v0, v1, v2, v3 := f64(a, 0)+f64(b, 0), f64(a, 1)+f64(b, 1), f64(a, 2)+f64(b, 2), f64(a, 3)+f64(b, 3)
			le.PutUint64(a[0:], math.Float64bits(v0))
			le.PutUint64(a[8:], math.Float64bits(v1))
			le.PutUint64(a[16:], math.Float64bits(v2))
			le.PutUint64(a[24:], math.Float64bits(v3))
		}
	case Op(o) == OpMax && (dt == Byte || dt == Char):
		for ; i+8 <= len(d) && i+8 <= len(s); i += 8 {
			a, b := le.Uint64(d[i:i+8:i+8]), le.Uint64(s[i:i+8:i+8])
			le.PutUint64(d[i:i+8:i+8], b^(a^b)&geLanes(a, b))
		}
	}
	for ; i < len(d); i += w {
		a, b := d[i:i+w], s[i:i+w]
		switch dt {
		case Int32:
			le.PutUint32(a, uint32(o.fi(int64(int32(le.Uint32(a))), int64(int32(le.Uint32(b))))))
		case Int64:
			le.PutUint64(a, uint64(o.fi(int64(le.Uint64(a)), int64(le.Uint64(b)))))
		case Float32:
			x, y := float64(math.Float32frombits(le.Uint32(a))), float64(math.Float32frombits(le.Uint32(b)))
			le.PutUint32(a, math.Float32bits(float32(o.ff(x, y))))
		case Float64:
			le.PutUint64(a, math.Float64bits(o.ff(math.Float64frombits(le.Uint64(a)), math.Float64frombits(le.Uint64(b)))))
		default: // Byte, Char
			a[0] = byte(o.fi(int64(a[0]), int64(b[0])))
		}
	}
	return nil
}
