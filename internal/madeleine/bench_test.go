package madeleine

import (
	"testing"

	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// Wall-clock cost of a full Madeleine message round trip through the
// simulator (pack, wire, unpack), per payload size. Each side has a buffer
// of its own, so a body that lands does cross memory.
func benchRoundtrip(b *testing.B, size int) {
	s := vtime.New()
	net := netsim.NewNetwork(s, "sci", netsim.SCISISCI())
	pa, pb := marcel.NewProc(s, "a"), marcel.NewProc(s, "b")
	chA, err := New(pa).NewChannel("ch", net)
	if err != nil {
		b.Fatal(err)
	}
	chB, err := New(pb).NewChannel("ch", net)
	if err != nil {
		b.Fatal(err)
	}
	bufA, bufB := make([]byte, size), make([]byte, size)
	pa.Spawn("ping", func() {
		for i := 0; i < b.N; i++ {
			conn, _ := chA.BeginPacking("b")
			conn.Pack(bufA, SendCheaper, ReceiveCheaper)
			conn.EndPacking()
			conn2, _ := chA.BeginUnpacking()
			conn2.Unpack(bufA, SendCheaper, ReceiveCheaper)
			conn2.EndUnpacking()
		}
	})
	pb.Spawn("pong", func() {
		for i := 0; i < b.N; i++ {
			conn, _ := chB.BeginUnpacking()
			conn.Unpack(bufB, SendCheaper, ReceiveCheaper)
			conn.EndUnpacking()
			conn2, _ := chB.BeginPacking("a")
			conn2.Pack(bufB, SendCheaper, ReceiveCheaper)
			conn2.EndPacking()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * size))
}

func BenchmarkRoundtrip4B(b *testing.B)   { benchRoundtrip(b, 4) }
func BenchmarkRoundtrip4KB(b *testing.B)  { benchRoundtrip(b, 4<<10) }
func BenchmarkRoundtrip64KB(b *testing.B) { benchRoundtrip(b, 64<<10) }
func BenchmarkRoundtrip8MB(b *testing.B)  { benchRoundtrip(b, 8<<20) }

func BenchmarkHeadEncodeDecode(b *testing.B) {
	blocks := []blockDesc{
		{place: placeAgg, recvMode: ReceiveExpress, length: 29},
		{place: placeBody, recvMode: ReceiveCheaper, length: 1 << 20},
	}
	agg := make([]byte, 29)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := encodeHead(uint32(i), blocks, agg)
		if _, _, _, err := decodeHead(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}
