package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// int32Bytes views a []int32 as wire bytes (little endian).
func int32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

// bytesInt32 decodes wire bytes into a []int32.
func bytesInt32(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

func TestBasicTypes(t *testing.T) {
	cases := []struct {
		dt   Datatype
		size int
	}{
		{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8}, {Float32, 4}, {Float64, 8},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size || c.dt.Extent() != c.size {
			t.Errorf("%s: size=%d extent=%d, want %d", c.dt.Name(), c.dt.Size(), c.dt.Extent(), c.size)
		}
		if !IsContiguous(c.dt) {
			t.Errorf("%s should be contiguous", c.dt.Name())
		}
	}
}

func TestContiguousPackIsAliasing(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	out := PackBuf(buf, 2, Int32)
	if &out[0] != &buf[0] {
		t.Fatal("contiguous pack must not copy")
	}
	if len(out) != 8 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestVectorRoundtrip(t *testing.T) {
	// A 4x4 matrix of int32; pick column 1 via a vector type.
	mat := make([]byte, 16*4)
	for i := 0; i < 16; i++ {
		mat[4*i] = byte(i)
	}
	col := Vector(4, 1, 4, Int32) // 4 blocks of 1 element, stride 4
	if col.Size() != 16 || col.Extent() != 13*4 {
		t.Fatalf("size=%d extent=%d", col.Size(), col.Extent())
	}
	packed := PackBuf(mat[4:], 1, col) // start at column 1
	want := []byte{1, 5, 9, 13}
	for i, w := range want {
		if packed[4*i] != w {
			t.Fatalf("packed col = % x", packed)
		}
	}
	// Unpack into a fresh matrix: only the column cells change.
	out := make([]byte, 16*4)
	UnpackBuf(out[4:], 1, col, packed)
	for i, w := range want {
		if out[4*(4*i+1)] != w {
			t.Fatalf("unpacked col wrong at row %d", i)
		}
	}
}

func TestIndexedRoundtrip(t *testing.T) {
	src := make([]byte, 40)
	for i := range src {
		src[i] = byte(i)
	}
	dt := Indexed([]int{2, 1, 3}, []int{0, 4, 6}, Int32)
	if dt.Size() != 6*4 {
		t.Fatalf("size = %d", dt.Size())
	}
	if dt.Extent() != 9*4 {
		t.Fatalf("extent = %d", dt.Extent())
	}
	packed := PackBuf(src, 1, dt)
	out := make([]byte, 40)
	UnpackBuf(out, 1, dt, packed)
	// Elements 0,1,4,6,7,8 must match; others zero.
	for _, e := range []int{0, 1, 4, 6, 7, 8} {
		if !bytes.Equal(out[4*e:4*e+4], src[4*e:4*e+4]) {
			t.Fatalf("element %d lost", e)
		}
	}
	if out[4*2] != 0 || out[4*3] != 0 || out[4*5] != 0 {
		t.Fatal("untouched elements were written")
	}
}

func TestStructRoundtrip(t *testing.T) {
	// struct { a [3]byte; pad [5]byte; b [8]byte } with extent 16.
	dt := Struct(16, []StructField{{Disp: 0, Len: 3}, {Disp: 8, Len: 8}})
	if dt.Size() != 11 || dt.Extent() != 16 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
	src := make([]byte, 32)
	for i := range src {
		src[i] = byte(i + 1)
	}
	packed := PackBuf(src, 2, dt)
	if len(packed) != 22 {
		t.Fatalf("packed len = %d", len(packed))
	}
	out := make([]byte, 32)
	UnpackBuf(out, 2, dt, packed)
	for _, i := range []int{0, 1, 2, 8, 9, 15, 16, 17, 24, 31} {
		if out[i] != src[i] {
			t.Fatalf("byte %d lost", i)
		}
	}
	if out[3] != 0 || out[20] != 0 {
		t.Fatal("padding written")
	}
}

func TestContiguousOfVector(t *testing.T) {
	inner := Vector(2, 1, 2, Int32)
	dt := Contiguous(3, inner)
	if dt.Size() != 3*8 {
		t.Fatalf("size=%d", dt.Size())
	}
	src := make([]byte, dt.Extent())
	for i := range src {
		src[i] = byte(i)
	}
	packed := PackBuf(src, 1, dt)
	out := make([]byte, dt.Extent())
	UnpackBuf(out, 1, dt, packed)
	repacked := PackBuf(out, 1, dt)
	if !bytes.Equal(packed, repacked) {
		t.Fatal("nested datatype roundtrip failed")
	}
}

func TestTypedHelpers(t *testing.T) {
	i32 := []int32{-1, 0, 1 << 30}
	if got := bytesInt32(int32Bytes(i32)); got[0] != -1 || got[2] != 1<<30 {
		t.Fatalf("int32 roundtrip: %v", got)
	}
	i64 := []int64{-1 << 62, 42}
	if got := BytesInt64(Int64Bytes(i64)); got[0] != -1<<62 || got[1] != 42 {
		t.Fatalf("int64 roundtrip: %v", got)
	}
	f := []float64{3.14159, -2.5e300}
	if got := BytesFloat64(Float64Bytes(f)); got[0] != 3.14159 || got[1] != -2.5e300 {
		t.Fatalf("float64 roundtrip: %v", got)
	}
}

// Property: pack/unpack of any vector type is lossless on the selected
// elements.
func TestVectorPackProperty(t *testing.T) {
	f := func(count, blocklen, strideExtra uint8, seed uint8) bool {
		cnt := int(count%5) + 1
		bl := int(blocklen%4) + 1
		stride := bl + int(strideExtra%4)
		dt := Vector(cnt, bl, stride, Int32)
		src := make([]byte, dt.Extent()+16)
		for i := range src {
			src[i] = byte(int(seed) + i*7)
		}
		packed := PackBuf(src, 1, dt)
		out := make([]byte, len(src))
		UnpackBuf(out, 1, dt, packed)
		repacked := PackBuf(out, 1, dt)
		return bytes.Equal(packed, repacked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: OpSum/OpMax over int64 agree with direct arithmetic and are
// commutative.
func TestOpsProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		x := Int64Bytes(a)
		y := Int64Bytes(b)
		if err := OpSum.Apply(x, y, n, Int64); err != nil {
			return false
		}
		got := BytesInt64(x)
		for i := range got {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		// Commutativity of max.
		p, q := Int64Bytes(a), Int64Bytes(b)
		OpMax.Apply(p, Int64Bytes(b), n, Int64)
		OpMax.Apply(q, Int64Bytes(a), n, Int64)
		return bytes.Equal(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsOnFloats(t *testing.T) {
	a := Float64Bytes([]float64{1.5, -2, 10})
	b := Float64Bytes([]float64{2, 3, -5})
	if err := OpProd.Apply(a, b, 3, Float64); err != nil {
		t.Fatal(err)
	}
	got := BytesFloat64(a)
	want := []float64{3, -6, -50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prod = %v", got)
		}
	}
	c := Float64Bytes([]float64{1, 5})
	if err := OpMin.Apply(c, Float64Bytes([]float64{2, 4}), 2, Float64); err != nil {
		t.Fatal(err)
	}
	if g := BytesFloat64(c); g[0] != 1 || g[1] != 4 {
		t.Fatalf("min = %v", g)
	}
}

func TestOpsBitwiseAndLogical(t *testing.T) {
	a := int32Bytes([]int32{0b1100, 1})
	if err := OpBAnd.Apply(a, int32Bytes([]int32{0b1010, 0}), 2, Int32); err != nil {
		t.Fatal(err)
	}
	if g := bytesInt32(a); g[0] != 0b1000 || g[1] != 0 {
		t.Fatalf("band = %v", g)
	}
	b := int32Bytes([]int32{0b1100})
	OpBOr.Apply(b, int32Bytes([]int32{0b0011}), 1, Int32)
	if bytesInt32(b)[0] != 0b1111 {
		t.Fatal("bor")
	}
	x := Int64Bytes([]int64{1, 0, 7})
	OpLAnd.Apply(x, Int64Bytes([]int64{1, 1, 0}), 3, Int64)
	if g := BytesInt64(x); g[0] != 1 || g[1] != 0 || g[2] != 0 {
		t.Fatalf("land = %v", g)
	}
	y := Int64Bytes([]int64{0, 0})
	OpLOr.Apply(y, Int64Bytes([]int64{0, 3}), 2, Int64)
	if g := BytesInt64(y); g[0] != 0 || g[1] != 1 {
		t.Fatalf("lor = %v", g)
	}
}

func TestOpsRejectBadTypes(t *testing.T) {
	if err := OpSum.Apply(nil, nil, 0, Struct(4, nil)); err == nil {
		t.Fatal("sum on struct accepted")
	}
	if err := OpBAnd.Apply(nil, nil, 0, Float64); err == nil {
		t.Fatal("band on float accepted")
	}
}

func TestStatusCount(t *testing.T) {
	st := &Status{Bytes: 24}
	if st.Count(Float64) != 3 || st.Count(Int32) != 6 || st.Count(Byte) != 24 {
		t.Fatal("Count wrong")
	}
}

// recipe is a datatype beside its reference: for each packed byte of one
// element, its offset in the user buffer, and the element's extent —
// worked out from the constructor's arguments alone, so it shares nothing
// with the runs the pack and unpack loops walk.
type recipe struct {
	dt     Datatype
	layout []int
	extent int
}

func rBasic(dt Datatype, width int) recipe {
	r := recipe{dt: dt, extent: width}
	for i := range width {
		r.layout = append(r.layout, i)
	}
	return r
}

// blocks appends, to r's layout, base element at for each at.
func (r *recipe) blocks(base recipe, at ...int) {
	for _, a := range at {
		for _, o := range base.layout {
			r.layout = append(r.layout, a*base.extent+o)
		}
	}
}

func span(from, n int) []int {
	at := make([]int, n)
	for i := range at {
		at[i] = from + i
	}
	return at
}

func rContig(count int, base recipe) recipe {
	r := recipe{dt: Contiguous(count, base.dt), extent: count * base.extent}
	r.blocks(base, span(0, count)...)
	return r
}

func rVector(count, blocklen, stride int, base recipe) recipe {
	r := recipe{dt: Vector(count, blocklen, stride, base.dt)}
	for i := range count {
		r.blocks(base, span(i*stride, blocklen)...)
		r.extent = (i*stride + blocklen) * base.extent
	}
	return r
}

func rIndexed(blocklens, displs []int, base recipe) recipe {
	r := recipe{dt: Indexed(blocklens, displs, base.dt)}
	for i, bl := range blocklens {
		r.blocks(base, span(displs[i], bl)...)
		r.extent = max(r.extent, (displs[i]+bl)*base.extent)
	}
	return r
}

func rStruct(extent int, fields []StructField) recipe {
	r := recipe{dt: Struct(extent, fields), extent: extent}
	for _, f := range fields {
		r.layout = append(r.layout, span(f.Disp, f.Len)...)
	}
	return r
}

// TestPackUnpackMatchElementPath: for every datatype constructor — dense
// and strided, nested every way, zero-size — every count and every source
// length from nothing to one byte too many, PackBuf and UnpackBuf put
// exactly the bytes the element-by-element definition puts, exactly where
// it puts them: whole elements only, everything else untouched.
func TestPackUnpackMatchElementPath(t *testing.T) {
	i32, f64, b8 := rBasic(Int32, 4), rBasic(Float64, 8), rBasic(Byte, 1)
	strided := rVector(2, 1, 2, i32)
	for _, rc := range []recipe{
		b8, i32, f64,
		rContig(5, b8), rContig(3, rBasic(Int64, 8)), rContig(2, rContig(3, i32)),
		rContig(3, strided), rContig(2, rVector(2, 2, 2, i32)),
		strided, rVector(3, 2, 2, b8), rVector(2, 1, 3, rContig(4, b8)), rVector(2, 1, 2, rVector(2, 2, 2, b8)),
		rVector(3, 2, 5, f64), rContig(2, rVector(3, 2, 4, f64)),
		rIndexed([]int{2, 1}, []int{3, 0}, i32), rIndexed([]int{2, 2}, []int{0, 2}, b8),
		rIndexed([]int{3, 0, 1}, []int{4, 9, 0}, f64),
		rStruct(16, []StructField{{0, 3}, {8, 5}}), rStruct(8, []StructField{{0, 8}}),
		rContig(0, i32), rVector(0, 1, 1, i32), rIndexed(nil, nil, i32), rStruct(4, nil), rStruct(0, nil),
		// Descending displacements, at an equal spacing the runs must not
		// fold backwards over.
		rIndexed([]int{1, 1, 1}, []int{6, 3, 0}, i32), rIndexed([]int{2, 2}, []int{4, 0}, f64),
		rVector(2, 2, 3, rVector(2, 1, 2, i32)),
		rIndexed([]int{2, 1}, []int{3, 0}, rVector(2, 1, 3, i32)),
		rContig(3, rStruct(12, []StructField{{0, 0}, {2, 3}, {5, 0}, {8, 4}})),
		// Size equals Extent, yet the bytes are listed out of order or twice.
		rStruct(8, []StructField{{4, 4}, {0, 4}}), rIndexed([]int{1, 1}, []int{1, 0}, i32),
		rStruct(8, []StructField{{0, 4}, {0, 4}}), rContig(2, rIndexed([]int{1, 1}, []int{1, 0}, i32)),
	} {
		dt, lay := rc.dt, rc.layout
		sz, ex := dt.Size(), dt.Extent()
		if len(lay) != sz || rc.extent != ex {
			t.Fatalf("%s: Size %d, Extent %d; the recipe has %d bytes in %d", dt.Name(), sz, ex, len(lay), rc.extent)
		}
		for count := 0; count <= 3; count++ {
			user := make([]byte, count*ex)
			for i := range user {
				user[i] = byte(7*i + 1)
			}
			wantPacked := make([]byte, 0, count*sz)
			for i := 0; i < count; i++ {
				for _, o := range lay {
					wantPacked = append(wantPacked, user[i*ex+o])
				}
			}
			if got := PackBuf(user, count, dt); !bytes.Equal(got, wantPacked) {
				t.Errorf("%s x%d: PackBuf = %v, element path %v", dt.Name(), count, got, wantPacked)
			}
			for n := 0; n <= count*sz+1; n++ {
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(100 + i)
				}
				got := bytes.Repeat([]byte{0xAA}, count*ex)
				want := bytes.Repeat([]byte{0xAA}, count*ex)
				for i := 0; sz > 0 && i < count && (i+1)*sz <= n; i++ {
					for k, o := range lay {
						want[i*ex+o] = src[i*sz+k]
					}
				}
				UnpackBuf(got, count, dt, src)
				if !bytes.Equal(got, want) {
					t.Errorf("%s x%d from %d bytes:\n got %v\nwant %v", dt.Name(), count, n, got, want)
				}
			}
		}
	}
}

// TestDenseNeverTakesElementPath: a dense nest flattens to one run of one
// block — moved by one copy — and a Vector over a dense base to one run
// whatever its count; a Contiguous over a Vector keeps one run per block
// of the Vector it repeats, and still moves the right bytes.
func TestDenseNeverTakesElementPath(t *testing.T) {
	for _, c := range []struct {
		dt           Datatype
		runs, blocks int // of the runs, and of the first
	}{
		{Int32, 1, 1}, {Contiguous(4, Int32), 1, 1}, {Contiguous(2, Contiguous(2, Int32)), 1, 1},
		{Contiguous(2, Vector(4, 2, 2, Int32)), 1, 1}, {Indexed([]int{2, 2}, []int{0, 2}, Byte), 1, 1},
		{Vector(4096, 1, 64, Float64), 1, 4096}, {Vector(2, 1, 3, Vector(2, 2, 2, Int32)), 1, 2},
		{Indexed([]int{1, 1, 1}, []int{0, 2, 4}, Float64), 1, 3}, {Indexed([]int{1, 1, 1}, []int{4, 2, 0}, Float64), 3, 1},
		{Contiguous(3, Vector(2, 1, 2, Int32)), 3, 2},
	} {
		if len(c.dt.runs) != c.runs || c.dt.runs[0].count != c.blocks {
			t.Errorf("%s flattens to %v, want %d runs, the first of %d blocks", c.dt.Name(), c.dt.runs, c.runs, c.blocks)
		}
	}
	rows := Vector(2, 1, 2, Contiguous(4, Int32)) // bytes [0,16) and [32,48) of a 48-byte extent
	user := pattern(2 * rows.Extent())
	var want []byte
	for _, at := range []int{0, 32, 48, 80} {
		want = append(want, user[at:at+16]...)
	}
	packed := PackBuf(user, 2, rows)
	if !bytes.Equal(packed, want) {
		t.Errorf("strided rows of a dense Contiguous: packed %v, want %v", packed, want)
	}
	out := make([]byte, len(user))
	UnpackBuf(out, 2, rows, packed)
	if !bytes.Equal(PackBuf(out, 2, rows), want) {
		t.Error("strided rows of a dense Contiguous: round trip lost bytes")
	}
}

// TestDenseIsReadFromTheRuns: a type is dense when its runs cover its
// extent once, in order — not whenever its Size equals its Extent. Two
// halves listed back to front pack the back half first, as MPI packs in
// type-map order; a half listed twice is no dense type either; a dense
// nest, a Vector whose blocks touch and a one-block Vector are.
func TestDenseIsReadFromTheRuns(t *testing.T) {
	user := pattern(8)
	swapped := append(append([]byte(nil), user[4:8]...), user[0:4]...)
	for _, dt := range []Datatype{
		Struct(8, []StructField{{4, 4}, {0, 4}}), Indexed([]int{1, 1}, []int{1, 0}, Int32),
	} {
		if IsContiguous(dt) {
			t.Errorf("%s is dense", dt.Name())
		}
		if got := PackBuf(user, 1, dt); !bytes.Equal(got, swapped) {
			t.Errorf("%s: PackBuf = %v, want bytes 4-7 first: %v", dt.Name(), got, swapped)
		}
	}
	for _, c := range []struct {
		dt    Datatype
		dense bool
	}{
		{Struct(8, []StructField{{0, 4}, {0, 4}}), false}, {Struct(8, []StructField{{0, 4}, {4, 4}}), true},
		{Indexed([]int{1, 1}, []int{0, 1}, Int32), true}, {Vector(3, 2, 2, Int32), true},
		{Vector(1, 2, 5, Int32), true}, {Contiguous(2, Vector(4, 2, 2, Int32)), true},
		{Struct(4, []StructField{{0, 2}, {4, 2}}), false}, {Struct(4, nil), false}, {Contiguous(0, Int32), true},
	} {
		if IsContiguous(c.dt) != c.dense {
			t.Errorf("%s (runs %v): dense %v, want %v", c.dt.Name(), c.dt.runs, !c.dense, c.dense)
		}
	}
}

// TestOverlapIsSweptAtConstruction: a type overlaps when two of its blocks
// share a byte, whatever order its constructor lists them in; blocks out of
// order, interleaved runs or a nest of disjoint types do not overlap, a
// field reaching into the next element of a Contiguous does. Its span is
// where its last block ends, or its extent when that is further.
func TestOverlapIsSweptAtConstruction(t *testing.T) {
	for _, c := range []struct {
		dt       Datatype
		overlaps bool
		span     int
	}{
		{Struct(8, []StructField{{0, 4}, {0, 4}}), true, 8},
		{Struct(8, []StructField{{4, 4}, {0, 4}}), false, 8},
		{Struct(8, []StructField{{4, 4}, {0, 5}}), true, 8},
		{Indexed([]int{1, 1}, []int{1, 0}, Int32), false, 8},
		{Indexed([]int{2, 1}, []int{1, 0}, Int32), false, 12},
		{Indexed([]int{2, 1}, []int{1, 2}, Int32), true, 12},
		{Struct(16, []StructField{{8, 4}, {0, 4}, {12, 4}, {4, 4}}), false, 16},
		{Struct(16, []StructField{{8, 4}, {0, 4}, {10, 4}}), true, 16},
		{Contiguous(2, Struct(4, []StructField{{0, 8}})), true, 12},
		{Contiguous(3, Indexed([]int{1, 1}, []int{1, 0}, Int32)), false, 24},
		{Indexed([]int{1, 1}, []int{3, 0}, Vector(2, 1, 2, Int32)), false, 48},
		{Indexed([]int{1, 1}, []int{1, 0}, Vector(2, 1, 2, Int32)), false, 24},
		{Indexed([]int{2, 1}, []int{0, 1}, Vector(2, 1, 2, Int32)), true, 24},
		{Vector(256, 1, 256, Float64), false, 255*256*8 + 8},
		{Struct(8, []StructField{{0, 0}, {0, 8}}), false, 8},
		{Struct(4, []StructField{{0, 8}}), false, 8},
		{Struct(8, []StructField{{0, 4}}), false, 8},
		{Struct(0, []StructField{{0, 1}}), false, 1},
	} {
		if c.dt.overlaps != c.overlaps || c.dt.span != c.span {
			t.Errorf("%s (runs %v): overlaps %v, span %d; want %v, %d", c.dt.Name(), c.dt.runs, c.dt.overlaps, c.dt.span, c.overlaps, c.span)
		}
	}
}

// A derived type formats its name when Name is called, not when it is
// built: the halo column bench/ builds every step costs the type and its
// runs, and the name is the one the constructor's arguments spell.
func TestNameFormattedOnDemand(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Vector(256, 1, 256, Float64) }); n > 2 {
		t.Errorf("Vector(256,1,256,Float64) allocates %.0f times, want at most 2", n)
	}
	for _, c := range []struct {
		dt   Datatype
		want string
	}{
		{Vector(256, 1, 256, Float64), "vector(256,1,256,MPI_DOUBLE)"},
		{Contiguous(3, Vector(2, 1, 3, Int32)), "contig(3,vector(2,1,3,MPI_INT32))"},
		{Indexed([]int{1, 1}, []int{1, 0}, Int32), "indexed(2,MPI_INT32)"},
		{Struct(8, []StructField{{4, 4}, {0, 4}}), "struct(2)"}, {Byte, "MPI_BYTE"},
	} {
		if got := c.dt.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestConstructorsRejectNegative: a negative count, block length or
// displacement panics at construction, naming the argument, instead of
// building a type the first pack fails on.
func TestConstructorsRejectNegative(t *testing.T) {
	for _, c := range []struct {
		want string
		make func() Datatype
	}{
		{"Contiguous count is negative (-1)", func() Datatype { return Contiguous(-1, Int32) }},
		{"Vector has a negative count (-2) or blocklen (1)", func() Datatype { return Vector(-2, 1, 1, Int32) }},
		{"Indexed block 1 has a negative length (1) or displacement (-3)", func() Datatype { return Indexed([]int{1, 1}, []int{0, -3}, Int32) }},
		{"Indexed block 0 has a negative length (-1) or displacement (2)", func() Datatype { return Indexed([]int{-1}, []int{2}, Int32) }},
		{"Struct field 0 has a negative Disp (-4) or Len (4)", func() Datatype { return Struct(8, []StructField{{-4, 4}}) }},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, c.want) {
					t.Errorf("panic %q, want one saying %q", got, c.want)
				}
			}()
			dt := c.make()
			t.Errorf("built %s (Size %d), want a panic saying %q", dt.Name(), dt.Size(), c.want)
		}()
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(3*i + 1)
	}
	return b
}

// The two host-side shapes of a collective's completion step: one dense
// megabyte, and a strided column of a row-major grid.
func BenchmarkUnpackContig1M(b *testing.B) {
	src, dst := pattern(1<<20), make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnpackBuf(dst, 1<<20, Byte, src)
	}
}

func BenchmarkPackContig1M(b *testing.B) {
	src := pattern(1 << 20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = PackBuf(src, 1<<20, Byte)
	}
}

const benchRows = 4096

var benchColumn = Vector(benchRows, 1, 64, Float64)

func BenchmarkUnpackVector(b *testing.B) {
	grid, src := make([]byte, benchColumn.Extent()), pattern(benchColumn.Size())
	b.SetBytes(int64(benchColumn.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnpackBuf(grid, 1, benchColumn, src)
	}
}

func BenchmarkPackVector(b *testing.B) {
	grid := pattern(benchColumn.Extent())
	b.SetBytes(int64(benchColumn.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = PackBuf(grid, 1, benchColumn)
	}
}

var benchSink []byte
