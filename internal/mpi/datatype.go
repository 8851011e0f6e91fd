// Package mpi implements the MPI library surface of the reproduction:
// communicators, groups, datatypes, point-to-point operations (blocking
// and non-blocking), and collectives, layered over the ADI exactly as in
// MPICH's architecture (Fig. 1: "generic part" -> "generic ADI code" ->
// devices).
//
// Buffers are []byte; a Datatype describes the element layout inside
// them, mirroring MPI's (buffer, count, datatype) triples. Helpers
// convert []int32/[]int64/[]float64 to and from wire representation.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype describes the memory layout of one element.
type Datatype interface {
	// Size is the number of bytes of actual data per element.
	Size() int
	// Extent is the span of one element in the user buffer (>= Size
	// for non-contiguous types).
	Extent() int
	// Name identifies the type in diagnostics.
	Name() string
	// packOne serializes one element from src (Extent bytes) into dst
	// (Size bytes).
	packOne(dst, src []byte)
	// unpackOne deserializes one element from src (Size bytes) into
	// dst (Extent bytes).
	unpackOne(dst, src []byte)
}

// basic is a contiguous fixed-width type.
type basic struct {
	name  string
	width int
}

func (b *basic) Size() int               { return b.width }
func (b *basic) Extent() int             { return b.width }
func (b *basic) Name() string            { return b.name }
func (b *basic) packOne(dst, src []byte) { copy(dst, src[:b.width]) }
func (b *basic) unpackOne(dst, src []byte) {
	copy(dst[:b.width], src)
}

// Predefined basic datatypes.
var (
	Byte    Datatype = &basic{"MPI_BYTE", 1}
	Char    Datatype = &basic{"MPI_CHAR", 1}
	Int32   Datatype = &basic{"MPI_INT32", 4}
	Int64   Datatype = &basic{"MPI_INT64", 8}
	Float32 Datatype = &basic{"MPI_FLOAT", 4}
	Float64 Datatype = &basic{"MPI_DOUBLE", 8}
)

// Contiguous builds a type of count consecutive elements of base
// (MPI_Type_contiguous).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func Contiguous(count int, base Datatype) Datatype {
	return &contiguous{base: base, count: count}
}

type contiguous struct {
	base  Datatype
	count int
}

func (c *contiguous) Size() int                 { return c.count * c.base.Size() }
func (c *contiguous) Extent() int               { return c.count * c.base.Extent() }
func (c *contiguous) Name() string              { return fmt.Sprintf("contig(%d,%s)", c.count, c.base.Name()) }
func (c *contiguous) packOne(dst, src []byte)   { packBlock(dst, src, c.count, c.base) }
func (c *contiguous) unpackOne(dst, src []byte) { unpackBlock(dst, src, c.count, c.base) }

// packBlock packs a block of n consecutive base elements from src into dst:
// one copy over a dense base, else element by element.
func packBlock(dst, src []byte, n int, base Datatype) {
	bs, be := base.Size(), base.Extent()
	if bs == be {
		copy(dst[:n*bs], src)
		return
	}
	for j := range n {
		base.packOne(dst[j*bs:(j+1)*bs], src[j*be:])
	}
}

// unpackBlock is packBlock's inverse.
func unpackBlock(dst, src []byte, n int, base Datatype) {
	bs, be := base.Size(), base.Extent()
	if bs == be {
		copy(dst[:n*bs], src)
		return
	}
	for j := range n {
		base.unpackOne(dst[j*be:], src[j*bs:(j+1)*bs])
	}
}

// Vector builds a strided type: count blocks of blocklen base elements,
// with stride base elements between block starts (MPI_Type_vector).
//
//madlint:ignore deadexport bench/ uses it
func Vector(count, blocklen, stride int, base Datatype) Datatype {
	if blocklen > stride {
		panic("mpi: Vector blocklen exceeds stride")
	}
	return &vector{base: base, count: count, blocklen: blocklen, stride: stride}
}

type vector struct {
	base                    Datatype
	count, blocklen, stride int
}

func (v *vector) Size() int { return v.count * v.blocklen * v.base.Size() }
func (v *vector) Extent() int {
	if v.count == 0 {
		return 0
	}
	return ((v.count-1)*v.stride + v.blocklen) * v.base.Extent()
}
func (v *vector) Name() string {
	return fmt.Sprintf("vector(%d,%d,%d,%s)", v.count, v.blocklen, v.stride, v.base.Name())
}
func (v *vector) packOne(dst, src []byte) {
	bs, be := v.base.Size(), v.base.Extent()
	n, st := v.blocklen*bs, v.stride*be
	for i := range v.count {
		if bs == be { // a block over a dense base is one run
			copy(dst[i*n:i*n+n], src[i*st:i*st+n])
		} else {
			packBlock(dst[i*n:], src[i*st:], v.blocklen, v.base)
		}
	}
}
func (v *vector) unpackOne(dst, src []byte) {
	bs, be := v.base.Size(), v.base.Extent()
	n, st := v.blocklen*bs, v.stride*be
	for i := range v.count {
		if bs == be {
			copy(dst[i*st:i*st+n], src[i*n:i*n+n])
		} else {
			unpackBlock(dst[i*st:], src[i*n:], v.blocklen, v.base)
		}
	}
}

// Indexed builds a type of variable-length blocks at element
// displacements (MPI_Type_indexed).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func Indexed(blocklens, displs []int, base Datatype) Datatype {
	if len(blocklens) != len(displs) {
		panic("mpi: Indexed blocklens/displs length mismatch")
	}
	return &indexed{base: base, blocklens: blocklens, displs: displs}
}

type indexed struct {
	base      Datatype
	blocklens []int
	displs    []int
}

func (x *indexed) Size() int {
	n := 0
	for _, b := range x.blocklens {
		n += b
	}
	return n * x.base.Size()
}
func (x *indexed) Extent() int {
	end := 0
	for i, b := range x.blocklens {
		if e := x.displs[i] + b; e > end {
			end = e
		}
	}
	return end * x.base.Extent()
}
func (x *indexed) Name() string {
	return fmt.Sprintf("indexed(%d,%s)", len(x.blocklens), x.base.Name())
}
func (x *indexed) packOne(dst, src []byte) {
	bs, be := x.base.Size(), x.base.Extent()
	o := 0
	for i, bl := range x.blocklens {
		packBlock(dst[o:], src[x.displs[i]*be:], bl, x.base)
		o += bl * bs
	}
}
func (x *indexed) unpackOne(dst, src []byte) {
	bs, be := x.base.Size(), x.base.Extent()
	o := 0
	for i, bl := range x.blocklens {
		unpackBlock(dst[x.displs[i]*be:], src[o:], bl, x.base)
		o += bl * bs
	}
}

// StructField is one member of a Struct datatype: Len bytes at byte
// offset Disp in the user buffer.
type StructField struct {
	Disp, Len int
}

// Struct builds a byte-granularity structure type (MPI_Type_struct with
// MPI_BYTE members).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func Struct(extent int, fields []StructField) Datatype {
	return &structT{extent: extent, fields: fields}
}

type structT struct {
	extent int
	fields []StructField
}

func (s *structT) Size() int {
	n := 0
	for _, f := range s.fields {
		n += f.Len
	}
	return n
}
func (s *structT) Extent() int  { return s.extent }
func (s *structT) Name() string { return fmt.Sprintf("struct(%d)", len(s.fields)) }
func (s *structT) packOne(dst, src []byte) {
	o := 0
	for _, f := range s.fields {
		copy(dst[o:o+f.Len], src[f.Disp:])
		o += f.Len
	}
}
func (s *structT) unpackOne(dst, src []byte) {
	o := 0
	for _, f := range s.fields {
		copy(dst[f.Disp:f.Disp+f.Len], src[o:o+f.Len])
		o += f.Len
	}
}

// IsContiguous reports whether count elements of dt occupy a dense byte
// range (no packing buffer needed).
func IsContiguous(dt Datatype) bool { return dt.Size() == dt.Extent() }

// PackBuf serializes count elements of dt from user buffer buf into a
// dense []byte. For contiguous types it returns a subslice of buf without
// copying.
func PackBuf(buf []byte, count int, dt Datatype) []byte {
	need := count * dt.Size()
	if IsContiguous(dt) {
		return buf[:need]
	}
	out := make([]byte, need)
	packBlock(out, buf, count, dt)
	return out
}

// sameMemory reports whether two non-empty buffers start at the same byte.
func sameMemory(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// UnpackBuf deserializes dense bytes into at most count elements of dt
// inside user buffer buf. src may be shorter than count*Size on truncation
// or a short message: only the whole elements it holds are unpacked (a
// partial trailing element is dropped, like MPICH), and the rest of buf is
// left untouched. A dense datatype moves in one copy.
func UnpackBuf(buf []byte, count int, dt Datatype, src []byte) {
	sz := dt.Size()
	if sz == 0 || sz == dt.Extent() && sameMemory(buf, src) { // already in place (schedBuilder.landing)
		return
	}
	unpackBlock(buf, src, min(count, len(src)/sz), dt)
}

// --- Typed slice helpers -------------------------------------------------

// Int64Bytes views a []int64 as wire bytes.
func Int64Bytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// BytesInt64 decodes wire bytes into a []int64.
func BytesInt64(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// Float64Bytes views a []float64 as wire bytes.
func Float64Bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesFloat64 decodes wire bytes into a []float64.
func BytesFloat64(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}
