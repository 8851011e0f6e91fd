package core

import (
	"bytes"
	"testing"

	"mpichmad/internal/adi"
)

// FuzzHeaderCodec checks that the ch_mad wire header codec is an exact
// bijection on well-sized buffers: any HeaderSize-byte input decodes, and
// re-encoding reproduces it bit for bit. Anything else must be rejected
// with an error, never a panic.
func FuzzHeaderCodec(f *testing.F) {
	h := header{Type: PktRndv, SrcRank: 3, DstRank: 9, Tag: 42, Context: 1,
		Len: 1 << 16, ReqID: 7, SyncID: 12, Offset: 4096, PathID: 2, Budget: 3}
	f.Add(h.encode())
	f.Add((&header{Type: PktShort, SrcRank: -1, Tag: -1}).encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeHeader(data)
		if err != nil {
			if len(data) == HeaderSize {
				t.Fatalf("well-sized header rejected: %v", err)
			}
			return
		}
		if re := got.encode(); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not a bijection:\n in %x\nout %x", data, re)
		}
	})
}

// FuzzRndvSegmentReassembly drives the receiver-side pipelined rendez-vous
// bookkeeping with arbitrary segmentations: the body is cut into segments
// whose sizes and landing order come from the fuzzer, and the reassembled
// bytes must equal the original body, completing exactly at the last
// segment — for both the zero-copy and the truncating (scratch) paths.
// Out-of-range segments must come back as errors, not slice panics.
func FuzzRndvSegmentReassembly(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 8, 8, 8, 8})
	f.Add([]byte{0xff, 0x03, 0x01, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x40, 0x00, 0x02, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bodyLen := 1 + (int(data[0])|int(data[1])<<8)%2048
		truncated := data[2]&1 == 1
		reverse := data[2]&2 == 2
		data = data[3:]

		// Hostile headers on a fresh transfer: rejected, not panicking.
		probe := &rndvState{env: adi.Envelope{Len: bodyLen},
			r: &adi.RecvReq{Buf: make([]byte, bodyLen)}, remaining: bodyLen}
		for _, bad := range [][2]int{{-1, 1}, {0, bodyLen + 1}, {bodyLen, 1}, {1, -2}} {
			if _, err := probe.segLanding(bad[0], bad[1], truncated); err == nil {
				t.Fatalf("segment [%d,+%d) of a %d-byte body accepted", bad[0], bad[1], bodyLen)
			}
		}

		body := make([]byte, bodyLen)
		for i := range body {
			body[i] = byte(i*7 + 3)
		}
		type seg struct{ off, n int }
		var segs []seg
		for off, i := 0, 0; off < bodyLen; i++ {
			n := 1
			if i < len(data) {
				n = 1 + int(data[i])%(bodyLen-off)
			} else {
				n = bodyLen - off
			}
			segs = append(segs, seg{off, n})
			off += n
		}
		if reverse {
			for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
				segs[i], segs[j] = segs[j], segs[i]
			}
		}

		recvLen := bodyLen
		if truncated {
			recvLen = bodyLen / 2 // shorter posted buffer: scratch path
		}
		st := &rndvState{env: adi.Envelope{Len: bodyLen},
			r: &adi.RecvReq{Buf: make([]byte, recvLen)}, remaining: bodyLen}
		for i, sg := range segs {
			landing, err := st.segLanding(sg.off, sg.n, truncated)
			if err != nil {
				t.Fatalf("segment [%d,+%d) rejected: %v", sg.off, sg.n, err)
			}
			copy(landing, body[sg.off:sg.off+sg.n])
			if done := st.segDone(sg.n); done != (i == len(segs)-1) {
				t.Fatalf("segment %d/%d: done=%v", i+1, len(segs), done)
			}
		}
		reassembled := st.r.Buf
		if truncated {
			reassembled = st.scratch
		}
		if !bytes.Equal(reassembled, body) {
			t.Fatalf("reassembly of %d segments corrupted the %d-byte body", len(segs), bodyLen)
		}
	})
}

// encode is the header as a buffer of its own.
func (h *header) encode() []byte {
	buf := make([]byte, HeaderSize)
	h.put(buf)
	return buf
}
