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
//madlint:ignore deadexport madsim needs it (ROADMAP item 5): every predefined Op
var (
	OpSum  Op = numericOp{name: "MPI_SUM", kern: kSum}
	OpProd Op = numericOp{name: "MPI_PROD", kern: kProd}
	OpMin  Op = numericOp{name: "MPI_MIN", kern: kMin}
	OpMax  Op = numericOp{name: "MPI_MAX", kern: kMax}
	OpBAnd Op = bitOp{"MPI_BAND", func(a, b byte) byte { return a & b }}
	OpBOr  Op = bitOp{"MPI_BOR", func(a, b byte) byte { return a | b }}
	OpBXor Op = bitOp{"MPI_BXOR", func(a, b byte) byte { return a ^ b }}
	OpLAnd Op = numericOp{name: "MPI_LAND", fi: func(a, b int64) int64 { return b2i(a != 0 && b != 0) },
		ff: func(a, b float64) float64 { return fb2i(a != 0 && b != 0) }}
	OpLOr Op = numericOp{name: "MPI_LOR", fi: func(a, b int64) int64 { return b2i(a != 0 || b != 0) },
		ff: func(a, b float64) float64 { return fb2i(a != 0 || b != 0) }}
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func fb2i(b bool) float64 {
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

// Element i of a packed little-endian buffer, read and written in the
// type the loops below combine it in. The window is sliced exactly, so the
// one bounds check per access is the slice's.
func i32(b []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(b[4*i : 4*i+4])) }
func i64(b []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i : 8*i+8])) }
func f32(b []byte, i int) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i : 4*i+4])))
}
func f64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
}
func setI32(b []byte, i int, v int32) { binary.LittleEndian.PutUint32(b[4*i:4*i+4], uint32(v)) }
func setI64(b []byte, i int, v int64) { binary.LittleEndian.PutUint64(b[8*i:8*i+8], uint64(v)) }
func setF32(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint32(b[4*i:4*i+4], math.Float32bits(float32(v)))
}
func setF64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:8*i+8], math.Float64bits(v))
}

func (o numericOp) Apply(dst, src []byte, count int, dt Datatype) error {
	switch dt {
	case Int32:
		switch o.kern {
		case kSum:
			for i := range count {
				setI32(dst, i, i32(dst, i)+i32(src, i))
			}
		case kProd:
			for i := range count {
				setI32(dst, i, i32(dst, i)*i32(src, i))
			}
		case kMin:
			for i := range count {
				setI32(dst, i, min(i32(dst, i), i32(src, i)))
			}
		case kMax:
			for i := range count {
				setI32(dst, i, max(i32(dst, i), i32(src, i)))
			}
		default:
			for i := range count {
				setI32(dst, i, int32(o.fi(int64(i32(dst, i)), int64(i32(src, i)))))
			}
		}
	case Int64:
		switch o.kern {
		case kSum:
			for i := range count {
				setI64(dst, i, i64(dst, i)+i64(src, i))
			}
		case kProd:
			for i := range count {
				setI64(dst, i, i64(dst, i)*i64(src, i))
			}
		case kMin:
			for i := range count {
				setI64(dst, i, min(i64(dst, i), i64(src, i)))
			}
		case kMax:
			for i := range count {
				setI64(dst, i, max(i64(dst, i), i64(src, i)))
			}
		default:
			for i := range count {
				setI64(dst, i, o.fi(i64(dst, i), i64(src, i)))
			}
		}
	case Byte, Char:
		dst, src = dst[:count], src[:count]
		switch o.kern {
		case kSum:
			for i, v := range src {
				dst[i] += v
			}
		case kProd:
			for i, v := range src {
				dst[i] *= v
			}
		case kMin:
			for i, v := range src {
				dst[i] = min(dst[i], v)
			}
		case kMax:
			for i, v := range src {
				dst[i] = max(dst[i], v)
			}
		default:
			for i, v := range src {
				dst[i] = byte(o.fi(int64(dst[i]), int64(v)))
			}
		}
	case Float32:
		switch o.kern {
		case kSum:
			for i := range count {
				setF32(dst, i, f32(dst, i)+f32(src, i))
			}
		case kProd:
			for i := range count {
				setF32(dst, i, f32(dst, i)*f32(src, i))
			}
		case kMin:
			for i := range count {
				setF32(dst, i, math.Min(f32(dst, i), f32(src, i)))
			}
		case kMax:
			for i := range count {
				setF32(dst, i, math.Max(f32(dst, i), f32(src, i)))
			}
		default:
			for i := range count {
				setF32(dst, i, o.ff(f32(dst, i), f32(src, i)))
			}
		}
	case Float64:
		switch o.kern {
		case kSum:
			for i := range count {
				setF64(dst, i, f64(dst, i)+f64(src, i))
			}
		case kProd:
			for i := range count {
				setF64(dst, i, f64(dst, i)*f64(src, i))
			}
		case kMin:
			for i := range count {
				setF64(dst, i, math.Min(f64(dst, i), f64(src, i)))
			}
		case kMax:
			for i := range count {
				setF64(dst, i, math.Max(f64(dst, i), f64(src, i)))
			}
		default:
			for i := range count {
				setF64(dst, i, o.ff(f64(dst, i), f64(src, i)))
			}
		}
	default:
		return fmt.Errorf("mpi: %s not defined for datatype %s", o.name, dt.Name())
	}
	return nil
}

// bitOp applies a bytewise boolean function (valid for integer types).
type bitOp struct {
	name string
	f    func(a, b byte) byte
}

func (o bitOp) Name() string { return o.name }

func (o bitOp) Apply(dst, src []byte, count int, dt Datatype) error {
	switch dt {
	case Int32, Int64, Byte, Char:
		n := count * dt.Size()
		for i := 0; i < n; i++ {
			dst[i] = o.f(dst[i], src[i])
		}
		return nil
	default:
		return fmt.Errorf("mpi: %s not defined for datatype %s", o.name, dt.Name())
	}
}
