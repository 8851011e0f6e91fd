package madeleine

import (
	"bytes"
	"testing"
)

// FuzzHeadCodec feeds arbitrary bytes to the message-head parser: a head
// that decodes must re-encode bit-identically (the descriptor table and
// aggregation area carry every wire bit), and malformed heads — truncated
// fixed part, descriptor tables longer than the buffer, aggregation
// length mismatches — must be rejected with an error, never a panic or an
// out-of-bounds read.
func FuzzHeadCodec(f *testing.F) {
	f.Add(encodeHead(7, []blockDesc{
		{place: placeAgg, sendMode: SendCheaper, recvMode: ReceiveCheaper, length: 5},
		{place: placeBody, sendMode: SendSafer, recvMode: ReceiveExpress, length: 1 << 20},
	}, []byte("hello")))
	f.Add(encodeHead(0, nil, nil))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, blocks, agg, err := decodeHead(data, nil)
		if err != nil {
			return
		}
		if re := encodeHead(seq, blocks, agg); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not a bijection:\n in %x\nout %x", data, re)
		}
	})
}

// encodeHead is the head of a message as a buffer of its own.
func encodeHead(seq uint32, blocks []blockDesc, agg []byte) []byte {
	return appendHead(nil, seq, blocks, agg)
}
