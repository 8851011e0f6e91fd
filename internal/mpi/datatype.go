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
	"slices"

	"mpichmad/internal/netsim"
)

// Datatype describes the memory layout of one element (MPI_Datatype): a
// handle to its flattened form.
type Datatype = *datatype

// datatype is every datatype, predefined or derived: Size bytes of data in
// an element Extent bytes long, flattened at construction into runs — the
// flattened form of Träff et al., "Flattening on the Fly" (EuroPVM/MPI
// 1999), and of MPICH's dataloops — which one loop (move) walks in order,
// to pack and to unpack. A type whose runs cover its extent once, in order,
// is dense: it moves as its bytes, in one copy, and nothing reads its runs.
// A derived type's name is formatted when asked for, so a type built per
// step makes no string: its name field is a format whose operands are the
// constructor's integer arguments and, fourth, its base's name. A type with
// no base is predefined: its name field is its name, and the reduction
// operators are defined on it alone.
type datatype struct {
	name         string
	args         [3]int
	base         Datatype
	size, extent int
	span         int // where an element's last block ends, at least its extent
	runs         []run
	dense        bool
	overlaps     bool // two blocks of one element share a byte
}

// run is count blocks of n bytes, the first off bytes into an element,
// each stride bytes after the one before.
type run struct{ off, n, count, stride int }

// Size is the number of bytes of data in one element.
func (t *datatype) Size() int { return t.size }

// Extent is the span of one element in the user buffer (>= Size for a
// strided type).
func (t *datatype) Extent() int { return t.extent }

// Name identifies the type in diagnostics.
func (t *datatype) Name() string {
	if t.base == nil {
		return t.name
	}
	return fmt.Sprintf(t.name, t.args[0], t.args[1], t.args[2], t.base.Name())
}

func predefined(name string, width int) Datatype {
	return &datatype{name: name, size: width, extent: width, span: width, runs: []run{{0, width, 1, 0}}, dense: true}
}

// Predefined basic datatypes.
var (
	Byte    = predefined("MPI_BYTE", 1)
	Char    = predefined("MPI_CHAR", 1)
	Int32   = predefined("MPI_INT32", 4)
	Int64   = predefined("MPI_INT64", 8)
	Float32 = predefined("MPI_FLOAT", 4)
	Float64 = predefined("MPI_DOUBLE", 8)
)

// blocks lays count blocks of bl consecutive base elements into t's
// element, block i at byte off+i*stride: one run over a dense base.
func (t *datatype) blocks(off, count, bl, stride int, base Datatype) {
	if base.dense {
		t.push(run{off, bl * base.size, count, stride})
		return
	}
	for i := range count {
		for j := range bl {
			for _, r := range base.runs {
				r.off += off + i*stride + j*base.extent
				t.push(r)
			}
		}
	}
}

// push appends r to t's runs, where it continues the last run: a lone block
// right after a lone block lengthens it, and blocks of the same length at
// the same forward spacing fold into one run. Blocks that touch are one
// block, so a dense type has one run of one block.
func (t *datatype) push(r run) {
	t.size += r.n * r.count
	if r.n == 0 || r.count == 0 {
		return
	}
	t.span = max(t.span, r.off+(r.count-1)*r.stride+r.n)
	t.place(r)
}

// place is push's placement of a block or run of blocks. A lone block that
// lengthens another is placed again, as the one block they are, so it folds
// into the run before as it would had it come whole.
func (t *datatype) place(r run) {
	if r.count == 1 || r.stride == r.n {
		r = run{r.off, r.n * r.count, 1, 0}
	}
	if k := len(t.runs) - 1; k >= 0 {
		l := &t.runs[k]
		s := r.off - l.off - (l.count-1)*l.stride // from l's last block to r's first
		t.overlaps = t.overlaps || s < l.n        // r starts before l ends: maybe, seal checks
		switch {
		case l.count == 1 && r.count == 1 && s == l.n:
			t.runs = t.runs[:k]
			t.place(run{l.off, l.n + r.n, 1, 0})
			return
		case l.n == r.n && s > l.n && (l.count == 1 || l.stride == s) && (r.count == 1 || r.stride == s):
			l.count, l.stride = l.count+r.count, s
			return
		}
	}
	t.runs = append(t.runs, r)
}

// Contiguous builds a type of count consecutive elements of base
// (MPI_Type_contiguous).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func Contiguous(count int, base Datatype) Datatype {
	if count < 0 { // a negative argument would build a type with no layout
		panic(fmt.Sprintf("mpi: Contiguous count is negative (%d)", count))
	}
	t := &datatype{name: "contig(%d,%[4]s)", args: [3]int{count}, base: base, extent: count * base.extent}
	t.blocks(0, 1, count, 0, base)
	return t.seal()
}

// Vector builds a strided type: count blocks of blocklen base elements,
// with stride base elements between block starts (MPI_Type_vector).
//
//madlint:ignore deadexport bench/ uses it
func Vector(count, blocklen, stride int, base Datatype) Datatype {
	if count < 0 || blocklen < 0 {
		panic(fmt.Sprintf("mpi: Vector has a negative count (%d) or blocklen (%d)", count, blocklen))
	}
	if blocklen > stride {
		panic("mpi: Vector blocklen exceeds stride")
	}
	t := &datatype{name: "vector(%d,%d,%d,%s)", args: [3]int{count, blocklen, stride}, base: base,
		extent: max(0, (count-1)*stride+blocklen) * base.extent}
	t.blocks(0, count, blocklen, stride*base.extent, base)
	return t.seal()
}

// Indexed builds a type of variable-length blocks at element
// displacements (MPI_Type_indexed).
//
//madlint:ignore deadexport madsim needs it (ROADMAP, "madsim: seeded random MPI programs against a sequential reference")
func Indexed(blocklens, displs []int, base Datatype) Datatype {
	if len(blocklens) != len(displs) {
		panic("mpi: Indexed blocklens/displs length mismatch")
	}
	t := &datatype{name: "indexed(%d,%[4]s)", args: [3]int{len(blocklens)}, base: base}
	for i, bl := range blocklens {
		if bl < 0 || displs[i] < 0 {
			panic(fmt.Sprintf("mpi: Indexed block %d has a negative length (%d) or displacement (%d)", i, bl, displs[i]))
		}
		t.extent = max(t.extent, (displs[i]+bl)*base.extent)
		t.blocks(displs[i]*base.extent, 1, bl, 0, base)
	}
	return t.seal()
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
	t := &datatype{name: "struct(%[1]d)", args: [3]int{len(fields)}, base: Byte, extent: extent}
	for i, f := range fields {
		if f.Disp < 0 || f.Len < 0 {
			panic(fmt.Sprintf("mpi: Struct field %d has a negative Disp (%d) or Len (%d)", i, f.Disp, f.Len))
		}
		t.push(run{f.Disp, f.Len, 1, 0})
	}
	return t.seal()
}

// seal marks t dense when its runs cover [0, extent) in order, exactly once:
// push merges touching blocks, so that is one run of one block spanning the
// extent, or no run in an empty extent. It keeps t marked overlapping only
// when two of its blocks do share a byte: push marks every type whose runs
// are out of order, and only those need the sweep.
func (t *datatype) seal() Datatype {
	t.dense = len(t.runs) == 0 && t.extent == 0 || len(t.runs) == 1 && t.runs[0] == run{0, t.extent, 1, 0}
	t.overlaps = t.overlaps && overlapping(t.runs)
	t.span = max(t.span, t.extent)
	return t
}

// overlapping reports whether two blocks of runs share a byte: one sweep
// over the blocks sorted by offset, each of which must start at or after
// the end of the one before. (Within a run, blocks never overlap: Vector
// rejects a block longer than its stride, and push folds only blocks
// spaced further apart than their length.)
func overlapping(runs []run) bool {
	var blocks []run // one block each
	for _, r := range runs {
		for k := range r.count {
			blocks = append(blocks, run{off: r.off + k*r.stride, n: r.n})
		}
	}
	slices.SortFunc(blocks, func(a, b run) int { return a.off - b.off })
	for k := 1; k < len(blocks); k++ {
		if blocks[k].off < blocks[k-1].off+blocks[k-1].n {
			return true
		}
	}
	return false
}

// IsContiguous reports whether count elements of dt occupy a dense byte
// range (no packing buffer needed).
func IsContiguous(dt Datatype) bool { return dt.dense }

// move copies count elements of a strided type between the user's layout
// in user and their packed form in packed, run by run: into packed when
// pack is set, else out of it, leaving the user's other bytes alone.
func (t *datatype) move(user, packed []byte, count int, pack bool) {
	o := 0
	for e := range count {
		for _, r := range t.runs {
			u := user[e*t.extent+r.off:]
			if pack {
				strided(packed[o:], u, r.count, r.n, r.n, r.stride)
			} else {
				strided(u, packed[o:], r.count, r.n, r.stride, r.n)
			}
			o += r.n * r.count
		}
	}
}

// strided copies count blocks of n bytes from src to dst, block i at
// i*sstride in src and i*dstride in dst. It stays out of line: inlined in
// move, each copy of the loop reloaded move's state around it.
//
//go:noinline
func strided(dst, src []byte, count, n, dstride, sstride int) {
	for i := range count {
		copy(dst[i*dstride:i*dstride+n], src[i*sstride:i*sstride+n])
	}
}

// PackBuf serializes count elements of dt from user buffer buf into a
// dense []byte: a subslice of buf for a dense type, else a fresh slice —
// for callers outside the package, whose own calls pack into a lease of
// the rank's buffer list.
//
//madlint:ignore deadexport bench/ uses it
func PackBuf(buf []byte, count int, dt Datatype) []byte {
	if IsContiguous(dt) {
		return buf[:count*dt.size]
	}
	out := make([]byte, count*dt.size)
	dt.move(buf, out, count, true)
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
// left untouched. A dense datatype moves in one copy, or none when it is
// already in place (schedBuilder.landing).
func UnpackBuf(buf []byte, count int, dt Datatype, src []byte) {
	n := min(count, len(src)/max(dt.size, 1)) // a zero-size type moves nothing
	if !IsContiguous(dt) {
		dt.move(buf, src, n, false)
	} else if !sameMemory(buf, src) {
		netsim.Copy(buf[:n*dt.size], src)
	}
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
