package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// closureOp is the reduction as it was before Apply's loops inlined their
// arithmetic: every element widened to int64 or float64, combined by a func
// value, narrowed back. Kept here as the reference the kernels must match
// bit for bit.
type closureOp struct {
	fi func(a, b int64) int64
	ff func(a, b float64) float64
}

var closureOps = map[string]closureOp{
	"MPI_SUM":  {func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }},
	"MPI_PROD": {func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }},
	"MPI_MIN": {func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	}, math.Min},
	"MPI_MAX": {func(a, b int64) int64 {
		if b > a {
			return b
		}
		return a
	}, math.Max},
	"MPI_LAND": {func(a, b int64) int64 { return b2i(a != 0 && b != 0) },
		func(a, b float64) float64 { return fb2i(a != 0 && b != 0) }},
	"MPI_LOR": {func(a, b int64) int64 { return b2i(a != 0 || b != 0) },
		func(a, b float64) float64 { return fb2i(a != 0 || b != 0) }},
}

func (o closureOp) apply(dst, src []byte, count int, dt Datatype) {
	le := binary.LittleEndian
	switch dt {
	case Int32:
		for i := 0; i < count; i++ {
			a := int64(int32(le.Uint32(dst[4*i:])))
			b := int64(int32(le.Uint32(src[4*i:])))
			le.PutUint32(dst[4*i:], uint32(int32(o.fi(a, b))))
		}
	case Int64:
		for i := 0; i < count; i++ {
			a := int64(le.Uint64(dst[8*i:]))
			b := int64(le.Uint64(src[8*i:]))
			le.PutUint64(dst[8*i:], uint64(o.fi(a, b)))
		}
	case Byte, Char:
		for i := 0; i < count; i++ {
			dst[i] = byte(o.fi(int64(dst[i]), int64(src[i])))
		}
	case Float32:
		for i := 0; i < count; i++ {
			a := float64(math.Float32frombits(le.Uint32(dst[4*i:])))
			b := float64(math.Float32frombits(le.Uint32(src[4*i:])))
			le.PutUint32(dst[4*i:], math.Float32bits(float32(o.ff(a, b))))
		}
	case Float64:
		for i := 0; i < count; i++ {
			a := math.Float64frombits(le.Uint64(dst[8*i:]))
			b := math.Float64frombits(le.Uint64(src[8*i:]))
			le.PutUint64(dst[8*i:], math.Float64bits(o.ff(a, b)))
		}
	}
}

// pairs lays the Cartesian square of vals out as two packed vectors: every
// value meets every value, in both operand positions.
func pairs[T any](vals []T, pack func([]T) []byte) (dst, src []byte, count int) {
	var a, b []T
	for _, x := range vals {
		for _, y := range vals {
			a, b = append(a, x), append(b, y)
		}
	}
	return pack(a), pack(b), len(a)
}

// Every numeric operator on every representation gives the closure form's
// bytes on the values where a shortcut would show: NaN, both zeros, both
// infinities, values that round and that overflow on the way back to
// float32, integers that wrap, bytes above 127.
func TestNumericOpsMatchClosureForm(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	f64s := []float64{nan, 0, math.Copysign(0, -1), inf, -inf, 1, -1, 0.1, 3,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, 1e-300}
	f32s := []float32{float32(nan), 0, float32(math.Copysign(0, -1)), float32(inf), float32(-inf), 1, -1, 0.1, 3,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1e30, 16777217, 1e-30}
	i64s := []int64{0, 1, -1, 2, 3, -7, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, 1 << 32, 3037000500}
	i32s := []int32{0, 1, -1, 2, 3, -7, math.MaxInt32, math.MinInt32, 46341, 1 << 16, -(1 << 16)}
	u8s := []byte{0, 1, 2, 3, 16, 127, 128, 200, 255}

	type vec struct {
		dt       Datatype
		dst, src []byte
		count    int
	}
	var vecs []vec
	add := func(dt Datatype, dst, src []byte, count int) { vecs = append(vecs, vec{dt, dst, src, count}) }
	d, s, n := pairs(f64s, Float64Bytes)
	add(Float64, d, s, n)
	d, s, n = pairs(f32s, func(v []float32) []byte {
		b := make([]byte, 4*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
		}
		return b
	})
	add(Float32, d, s, n)
	d, s, n = pairs(i64s, Int64Bytes)
	add(Int64, d, s, n)
	d, s, n = pairs(i32s, int32Bytes)
	add(Int32, d, s, n)
	d, s, n = pairs(u8s, func(v []byte) []byte { return v })
	add(Byte, d, s, n)
	add(Char, d, s, n)

	for _, op := range []Op{OpSum, OpProd, OpMin, OpMax, OpLAnd, OpLOr} {
		ref := closureOps[op.Name()]
		for _, v := range vecs {
			got, want := bytes.Clone(v.dst), bytes.Clone(v.dst)
			if err := op.Apply(got, v.src, v.count, v.dt); err != nil {
				t.Fatalf("%s on %s: %v", op.Name(), v.dt.Name(), err)
			}
			ref.apply(want, v.src, v.count, v.dt)
			if !bytes.Equal(got, want) {
				es := v.dt.Size()
				for i := 0; i < v.count; i++ {
					if !bytes.Equal(got[i*es:(i+1)*es], want[i*es:(i+1)*es]) {
						t.Errorf("%s on %s: element %d (%x op %x) = %x, closure form gives %x", op.Name(), v.dt.Name(), i,
							v.dst[i*es:(i+1)*es], v.src[i*es:(i+1)*es], got[i*es:(i+1)*es], want[i*es:(i+1)*es])
						break
					}
				}
			}
		}
	}
	if err := OpSum.Apply(nil, nil, 0, Vector(2, 1, 2, Byte)); err == nil {
		t.Error("OpSum on a derived datatype did not fail")
	}
}

// The reduction kernel of the workloads' Allreduce: float64 sum over a
// 64 KiB vector.
func BenchmarkReduceF64(b *testing.B) {
	const n = 8192
	dst, src := make([]byte, 8*n), Float64Bytes(make([]float64, n))
	b.SetBytes(8 * n)
	for i := 0; i < b.N; i++ {
		if err := OpSum.Apply(dst, src, n, Float64); err != nil {
			b.Fatal(err)
		}
	}
}
