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

// Predefined reduction operations.
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference"): every predefined Op
var (
	OpSum  Op = numericOp{name: "MPI_SUM", kern: kSum}
	OpProd Op = numericOp{name: "MPI_PROD", kern: kProd}
	OpMin  Op = numericOp{name: "MPI_MIN", kern: kMin}
	OpMax  Op = numericOp{name: "MPI_MAX", kern: kMax}
	OpBAnd Op = bitOp{"MPI_BAND", '&'}
	OpBOr  Op = bitOp{"MPI_BOR", '|'}
	OpBXor Op = bitOp{"MPI_BXOR", '^'}
	OpLAnd Op = numericOp{name: "MPI_LAND", fi: func(a, b int64) int64 { return b2i(a != 0 && b != 0) },
		ff: func(a, b float64) float64 { return float64(b2i(a != 0 && b != 0)) }}
	OpLOr Op = numericOp{name: "MPI_LOR", fi: func(a, b int64) int64 { return b2i(a != 0 || b != 0) },
		ff: func(a, b float64) float64 { return float64(b2i(a != 0 || b != 0)) }}
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// kernel names an operator whose arithmetic Apply writes out in its loops,
// one loop per (operator, representation), instead of calling a func value
// per element: the four that reductions spend their time in.
type kernel uint8

const (
	kFunc kernel = iota // no kernel: fi/ff, called per element
	kSum
	kProd
	kMin
	kMax
)

// numericOp dispatches on the datatype's machine representation. Integers
// are combined in their own width (which is what widening to int64 and
// truncating back computes), Byte unsigned, Float32 widened to float64 and
// rounded back, Min/Max on floats by math.Min/math.Max (NaN and signed-zero
// rules included).
type numericOp struct {
	name string
	kern kernel
	fi   func(a, b int64) int64
	ff   func(a, b float64) float64
}

func (o numericOp) Name() string { return o.name }

// Element i of a packed little-endian buffer, in the type the loops below
// combine it in (an Int32 sign-extended: its low 32 bits are what it is
// stored back as).
func i32(b []byte, i int) int64 { return int64(int32(binary.LittleEndian.Uint32(b[4*i : 4*i+4]))) }
func i64(b []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i : 8*i+8])) }
func f32(b []byte, i int) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i : 4*i+4])))
}
func f64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
}

// The four elements at the head of a window, written under one bounds
// check.
func st4I32(b []byte, v0, v1, v2, v3 int64) {
	_ = b[15]
	binary.LittleEndian.PutUint32(b[0:], uint32(v0))
	binary.LittleEndian.PutUint32(b[4:], uint32(v1))
	binary.LittleEndian.PutUint32(b[8:], uint32(v2))
	binary.LittleEndian.PutUint32(b[12:], uint32(v3))
}
func st4I64(b []byte, v0, v1, v2, v3 int64) {
	_ = b[31]
	binary.LittleEndian.PutUint64(b[0:], uint64(v0))
	binary.LittleEndian.PutUint64(b[8:], uint64(v1))
	binary.LittleEndian.PutUint64(b[16:], uint64(v2))
	binary.LittleEndian.PutUint64(b[24:], uint64(v3))
}
func st4F32(b []byte, v0, v1, v2, v3 float64) {
	_ = b[15]
	binary.LittleEndian.PutUint32(b[0:], math.Float32bits(float32(v0)))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(float32(v1)))
	binary.LittleEndian.PutUint32(b[8:], math.Float32bits(float32(v2)))
	binary.LittleEndian.PutUint32(b[12:], math.Float32bits(float32(v3)))
}
func st4F64(b []byte, v0, v1, v2, v3 float64) {
	_ = b[31]
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(v0))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v1))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(v2))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(v3))
}

// geLanes is 0xff in each byte lane where a >= b (unsigned), else 0: the
// top bits decide where they differ, else the low seven bits, by a
// subtraction that cannot borrow across a lane.
func geLanes(a, b uint64) uint64 {
	ge := (a&^b | ^(a^b)&((a|lanesHi)-b&^lanesHi)) & lanesHi
	return (ge >> 7) * 0xff
}

const lanesHi = 0x8080808080808080 // the top bit of each byte lane

// Apply combines a step at a time — four elements, or one 8-byte word of
// byte lanes — over windows sliced once, so a step's bounds checks are the
// window's, not every element's. A tail shorter than a step runs as one
// step over zero-padded copies, whose padding lanes are dropped: every
// element is combined alone, so its result does not depend on its
// neighbours.
func (o numericOp) Apply(dst, src []byte, count int, dt Datatype) error {
	if dt.base != nil {
		return fmt.Errorf("mpi: %s not defined for datatype %s", o.name, dt.Name())
	}
	step := max(8, 4*dt.Size()) // four elements, or a word of byte lanes
	d := dst[:dt.Size()*count]
	s := src[:len(d)]
	whole := len(d) - len(d)%step
	o.steps(d[:whole], s[:whole], dt)
	if whole < len(d) {
		var pd, ps [32]byte
		copy(pd[:], d[whole:])
		copy(ps[:], s[whole:])
		o.steps(pd[:step], ps[:step], dt)
		copy(d[whole:], pd[:])
	}
	return nil
}

// steps combines whole steps of src into dst (len(s) == len(d), a multiple
// of the step). Each loop slices its windows a and b to length and capacity
// n under a test of both lengths, so the compiler proves every access to
// them. Neither slice may escape: the tail's copies live on Apply's stack
// (a range-over-func loop here that the compiler did not inline made them
// escape, two allocations per call).
func (o numericOp) steps(d, s []byte, dt Datatype) {
	switch dt {
	case Int32:
		switch o.kern {
		case kSum:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4I32(a, i32(a, 0)+i32(b, 0), i32(a, 1)+i32(b, 1), i32(a, 2)+i32(b, 2), i32(a, 3)+i32(b, 3))
			}
		case kProd:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4I32(a, i32(a, 0)*i32(b, 0), i32(a, 1)*i32(b, 1), i32(a, 2)*i32(b, 2), i32(a, 3)*i32(b, 3))
			}
		case kMin:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4I32(a, min(i32(a, 0), i32(b, 0)), min(i32(a, 1), i32(b, 1)), min(i32(a, 2), i32(b, 2)), min(i32(a, 3), i32(b, 3)))
			}
		case kMax:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4I32(a, max(i32(a, 0), i32(b, 0)), max(i32(a, 1), i32(b, 1)), max(i32(a, 2), i32(b, 2)), max(i32(a, 3), i32(b, 3)))
			}
		default:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4I32(a, o.fi(i32(a, 0), i32(b, 0)), o.fi(i32(a, 1), i32(b, 1)), o.fi(i32(a, 2), i32(b, 2)), o.fi(i32(a, 3), i32(b, 3)))
			}
		}
	case Int64:
		switch o.kern {
		case kSum:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4I64(a, i64(a, 0)+i64(b, 0), i64(a, 1)+i64(b, 1), i64(a, 2)+i64(b, 2), i64(a, 3)+i64(b, 3))
			}
		case kProd:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4I64(a, i64(a, 0)*i64(b, 0), i64(a, 1)*i64(b, 1), i64(a, 2)*i64(b, 2), i64(a, 3)*i64(b, 3))
			}
		case kMin:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4I64(a, min(i64(a, 0), i64(b, 0)), min(i64(a, 1), i64(b, 1)), min(i64(a, 2), i64(b, 2)), min(i64(a, 3), i64(b, 3)))
			}
		case kMax:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4I64(a, max(i64(a, 0), i64(b, 0)), max(i64(a, 1), i64(b, 1)), max(i64(a, 2), i64(b, 2)), max(i64(a, 3), i64(b, 3)))
			}
		default:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4I64(a, o.fi(i64(a, 0), i64(b, 0)), o.fi(i64(a, 1), i64(b, 1)), o.fi(i64(a, 2), i64(b, 2)), o.fi(i64(a, 3), i64(b, 3)))
			}
		}
	case Float32:
		switch o.kern {
		case kSum:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4F32(a, f32(a, 0)+f32(b, 0), f32(a, 1)+f32(b, 1), f32(a, 2)+f32(b, 2), f32(a, 3)+f32(b, 3))
			}
		case kProd:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4F32(a, f32(a, 0)*f32(b, 0), f32(a, 1)*f32(b, 1), f32(a, 2)*f32(b, 2), f32(a, 3)*f32(b, 3))
			}
		case kMin:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4F32(a, math.Min(f32(a, 0), f32(b, 0)), math.Min(f32(a, 1), f32(b, 1)), math.Min(f32(a, 2), f32(b, 2)), math.Min(f32(a, 3), f32(b, 3)))
			}
		case kMax:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4F32(a, math.Max(f32(a, 0), f32(b, 0)), math.Max(f32(a, 1), f32(b, 1)), math.Max(f32(a, 2), f32(b, 2)), math.Max(f32(a, 3), f32(b, 3)))
			}
		default:
			for i := 0; i+16 <= len(d) && i+16 <= len(s); i += 16 {
				a, b := d[i:i+16:i+16], s[i:i+16:i+16]
				st4F32(a, o.ff(f32(a, 0), f32(b, 0)), o.ff(f32(a, 1), f32(b, 1)), o.ff(f32(a, 2), f32(b, 2)), o.ff(f32(a, 3), f32(b, 3)))
			}
		}
	case Float64:
		switch o.kern {
		case kSum:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4F64(a, f64(a, 0)+f64(b, 0), f64(a, 1)+f64(b, 1), f64(a, 2)+f64(b, 2), f64(a, 3)+f64(b, 3))
			}
		case kProd:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4F64(a, f64(a, 0)*f64(b, 0), f64(a, 1)*f64(b, 1), f64(a, 2)*f64(b, 2), f64(a, 3)*f64(b, 3))
			}
		case kMin:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4F64(a, math.Min(f64(a, 0), f64(b, 0)), math.Min(f64(a, 1), f64(b, 1)), math.Min(f64(a, 2), f64(b, 2)), math.Min(f64(a, 3), f64(b, 3)))
			}
		case kMax:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4F64(a, math.Max(f64(a, 0), f64(b, 0)), math.Max(f64(a, 1), f64(b, 1)), math.Max(f64(a, 2), f64(b, 2)), math.Max(f64(a, 3), f64(b, 3)))
			}
		default:
			for i := 0; i+32 <= len(d) && i+32 <= len(s); i += 32 {
				a, b := d[i:i+32:i+32], s[i:i+32:i+32]
				st4F64(a, o.ff(f64(a, 0), f64(b, 0)), o.ff(f64(a, 1), f64(b, 1)), o.ff(f64(a, 2), f64(b, 2)), o.ff(f64(a, 3), f64(b, 3)))
			}
		}
	default: // Byte, Char
		switch o.kern {
		case kSum: // the low seven bits of each lane add; the top bit is their carry xor both top bits
			for i := 0; i+8 <= len(d) && i+8 <= len(s); i += 8 {
				a, b := binary.LittleEndian.Uint64(d[i:i+8:i+8]), binary.LittleEndian.Uint64(s[i:i+8:i+8])
				binary.LittleEndian.PutUint64(d[i:i+8:i+8], (a&^lanesHi+b&^lanesHi)^(a^b)&lanesHi)
			}
		case kMin:
			for i := 0; i+8 <= len(d) && i+8 <= len(s); i += 8 {
				a, b := binary.LittleEndian.Uint64(d[i:i+8:i+8]), binary.LittleEndian.Uint64(s[i:i+8:i+8])
				binary.LittleEndian.PutUint64(d[i:i+8:i+8], a^(a^b)&geLanes(a, b))
			}
		case kMax:
			for i := 0; i+8 <= len(d) && i+8 <= len(s); i += 8 {
				a, b := binary.LittleEndian.Uint64(d[i:i+8:i+8]), binary.LittleEndian.Uint64(s[i:i+8:i+8])
				binary.LittleEndian.PutUint64(d[i:i+8:i+8], b^(a^b)&geLanes(a, b))
			}
		case kProd:
			for i, v := range s[:len(d)] {
				d[i] *= v
			}
		default:
			for i, v := range s[:len(d)] {
				d[i] = byte(o.fi(int64(d[i]), int64(v)))
			}
		}
	}
}

// bitOp applies a bitwise operator (valid for integer types) a word at a
// time: a word's bytes combine independently, and a tail byte is a word of
// one byte.
type bitOp struct {
	name string
	op   byte // '&', '|' or '^'
}

func (o bitOp) Name() string { return o.name }

func (o bitOp) word(a, b uint64) uint64 {
	switch o.op {
	case '&':
		return a & b
	case '|':
		return a | b
	}
	return a ^ b
}

func (o bitOp) Apply(dst, src []byte, count int, dt Datatype) error {
	switch dt {
	case Int32, Int64, Byte, Char:
	default:
		return fmt.Errorf("mpi: %s not defined for datatype %s", o.name, dt.Name())
	}
	d := dst[:count*dt.Size()]
	s := src[:len(d)]
	for i := 0; i+8 <= len(d) && i+8 <= len(s); i += 8 {
		binary.LittleEndian.PutUint64(d[i:i+8:i+8], o.word(binary.LittleEndian.Uint64(d[i:i+8:i+8]), binary.LittleEndian.Uint64(s[i:i+8:i+8])))
	}
	for i := len(d) &^ 7; i < len(d); i++ {
		d[i] = byte(o.word(uint64(d[i]), uint64(s[i])))
	}
	return nil
}
