package madeleine

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// unpackInt unpacks a 4-byte little-endian length field with EXPRESS
// semantics, the §3.2 example pattern.
func (c *Connection) unpackInt(sm SendMode, rm RecvMode) (int, error) {
	var b [4]byte
	if err := c.Unpack(b[:], sm, rm); err != nil {
		return 0, err
	}
	return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24), nil
}

// packInt packs a 4-byte little-endian integer.
func (c *Connection) packInt(v int, sm SendMode, rm RecvMode) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return c.Pack(b[:], sm, rm)
}

// pair is a two-process test harness on one network.
type pair struct {
	s        *vtime.Scheduler
	net      *netsim.Network
	pa, pb   *marcel.Proc
	ia, ib   *Instance
	chA, chB *Channel
}

func newPair(t *testing.T, params netsim.Params) *pair {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(100 * vtime.Second))
	net := netsim.NewNetwork(s, params.Network, params)
	pa, pb := marcel.NewProc(s, "a"), marcel.NewProc(s, "b")
	ia, ib := New(pa), New(pb)
	chA, err := ia.NewChannel("ch", net)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := ib.NewChannel("ch", net)
	if err != nil {
		t.Fatal(err)
	}
	return &pair{s: s, net: net, pa: pa, pb: pb, ia: ia, ib: ib, chA: chA, chB: chB}
}

func (p *pair) run(t *testing.T) {
	t.Helper()
	if err := p.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExpressCheaperRoundtrip(t *testing.T) {
	// The §3.2 example: an EXPRESS length followed by a CHEAPER array
	// whose size the receiver only learns from the first unpack.
	p := newPair(t, netsim.SCISISCI())
	payload := make([]byte, 30000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	p.pa.Spawn("send", func() {
		conn, err := p.chA.BeginPacking("b")
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.packInt(len(payload), SendCheaper, ReceiveExpress); err != nil {
			t.Error(err)
		}
		if err := conn.Pack(payload, SendCheaper, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		if err := conn.EndPacking(); err != nil {
			t.Error(err)
		}
	})
	p.pb.Spawn("recv", func() {
		conn, err := p.chB.BeginUnpacking()
		if err != nil {
			t.Error(err)
			return
		}
		if conn.Remote != "a" {
			t.Errorf("message from %q, want a", conn.Remote)
		}
		size, err := conn.unpackInt(SendCheaper, ReceiveExpress)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, size)
		if err := conn.Unpack(buf, SendCheaper, ReceiveCheaper); err != nil {
			t.Error(err)
			return
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, payload) {
			t.Error("payload corrupted in transit")
		}
	})
	p.run(t)
}

func TestSmallBlocksAggregateIntoOnePacket(t *testing.T) {
	p := newPair(t, netsim.FastEthernetTCP()) // AggLimit 1460
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		conn.Pack(make([]byte, 100), SendCheaper, ReceiveExpress)
		conn.Pack(make([]byte, 200), SendCheaper, ReceiveCheaper)
		conn.EndPacking()
	})
	p.pb.Spawn("recv", func() {
		conn, _ := p.chB.BeginUnpacking()
		conn.Unpack(make([]byte, 100), SendCheaper, ReceiveExpress)
		conn.Unpack(make([]byte, 200), SendCheaper, ReceiveCheaper)
		conn.EndUnpacking()
	})
	p.run(t)
	if p.net.Stats.Packets != 1 {
		t.Fatalf("sent %d packets, want 1 (full aggregation)", p.net.Stats.Packets)
	}
}

func TestLargeCheaperBlockGetsOwnPacket(t *testing.T) {
	p := newPair(t, netsim.FastEthernetTCP())
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		conn.Pack(make([]byte, 4), SendCheaper, ReceiveExpress)
		conn.Pack(make([]byte, 100000), SendCheaper, ReceiveCheaper)
		conn.EndPacking()
	})
	p.pb.Spawn("recv", func() {
		conn, _ := p.chB.BeginUnpacking()
		conn.Unpack(make([]byte, 4), SendCheaper, ReceiveExpress)
		conn.Unpack(make([]byte, 100000), SendCheaper, ReceiveCheaper)
		conn.EndUnpacking()
	})
	p.run(t)
	if p.net.Stats.Packets != 2 {
		t.Fatalf("sent %d packets, want 2 (head + zero-copy body)", p.net.Stats.Packets)
	}
}

func TestSendSaferForcesEagerCopyButStaysCorrect(t *testing.T) {
	// With SendSafer the application may scribble on the buffer right
	// after Pack; the receiver must still see the original bytes.
	p := newPair(t, netsim.SCISISCI())
	buf := []byte("precious-data")
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		if err := conn.Pack(buf, SendSafer, ReceiveCheaper); err != nil {
			t.Error(err)
		}
		copy(buf, "XXXXXXXXXXXXX") // legal under SendSafer
		conn.EndPacking()
	})
	p.pb.Spawn("recv", func() {
		conn, _ := p.chB.BeginUnpacking()
		got := make([]byte, len(buf))
		conn.Unpack(got, SendSafer, ReceiveCheaper)
		conn.EndUnpacking()
		if string(got) != "precious-data" {
			t.Errorf("got %q, want precious-data", got)
		}
	})
	p.run(t)
}

func TestCheaperBufferStableUntilEndPacking(t *testing.T) {
	// SendCheaper contract: buffer must stay untouched until EndPacking
	// returns; after that the application may reuse it freely without
	// corrupting the in-flight message.
	p := newPair(t, netsim.FastEthernetTCP())
	big := make([]byte, 50000)
	for i := range big {
		big[i] = 0xAB
	}
	p.pa.Spawn("send", func() {
		conn, _ := p.chA.BeginPacking("b")
		conn.Pack(big, SendCheaper, ReceiveCheaper)
		conn.EndPacking()
		for i := range big {
			big[i] = 0xCD // reuse after EndPacking
		}
	})
	p.pb.Spawn("recv", func() {
		conn, _ := p.chB.BeginUnpacking()
		got := make([]byte, len(big))
		conn.Unpack(got, SendCheaper, ReceiveCheaper)
		conn.EndUnpacking()
		for i := range got {
			if got[i] != 0xAB {
				t.Fatalf("byte %d = %#x, want 0xAB", i, got[i])
			}
		}
	})
	p.run(t)
}

func TestMessagesInOrderOnConnection(t *testing.T) {
	p := newPair(t, netsim.MyrinetBIP())
	const n = 10
	p.pa.Spawn("send", func() {
		for i := 0; i < n; i++ {
			conn, _ := p.chA.BeginPacking("b")
			conn.packInt(i, SendCheaper, ReceiveExpress)
			conn.EndPacking()
		}
	})
	p.pb.Spawn("recv", func() {
		for i := 0; i < n; i++ {
			conn, _ := p.chB.BeginUnpacking()
			v, err := conn.unpackInt(SendCheaper, ReceiveExpress)
			if err != nil {
				t.Error(err)
				return
			}
			if v != i {
				t.Errorf("message %d carried %d: out of order", i, v)
			}
			conn.EndUnpacking()
		}
	})
	p.run(t)
	if p.chB.Messages != n {
		t.Fatalf("Messages = %d, want %d", p.chB.Messages, n)
	}
}

func TestTwoSendersFIFOByArrival(t *testing.T) {
	s := vtime.New()
	s.SetDeadline(vtime.Time(vtime.Second))
	params := netsim.SCISISCI()
	net := netsim.NewNetwork(s, "sci", params)
	procs := []*marcel.Proc{marcel.NewProc(s, "a"), marcel.NewProc(s, "b"), marcel.NewProc(s, "c")}
	insts := []*Instance{New(procs[0]), New(procs[1]), New(procs[2])}
	chans := make([]*Channel, 3)
	for i, in := range insts {
		ch, err := in.NewChannel("ch", net)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	// b sends at t=0, c sends at t=50us; a must see b first.
	send := func(ch *Channel, delay vtime.Duration, tag int) func() {
		return func() {
			ch.Inst.P.Sleep(delay)
			conn, _ := ch.BeginPacking("a")
			conn.packInt(tag, SendCheaper, ReceiveExpress)
			conn.EndPacking()
		}
	}
	procs[1].Spawn("send", send(chans[1], 0, 1))
	procs[2].Spawn("send", send(chans[2], 50*vtime.Microsecond, 2))
	var order []int
	procs[0].Spawn("recv", func() {
		for i := 0; i < 2; i++ {
			conn, err := chans[0].BeginUnpacking()
			if err != nil {
				t.Error(err)
				return
			}
			v, _ := conn.unpackInt(SendCheaper, ReceiveExpress)
			order = append(order, v)
			conn.EndUnpacking()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestPackSequencingErrors(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	p.pa.Spawn("main", func() {
		conn := p.chA.connFor("b")
		if err := conn.Pack([]byte{1}, SendCheaper, ReceiveCheaper); !errors.Is(err, ErrNotPacking) {
			t.Errorf("Pack before BeginPacking: %v", err)
		}
		if err := conn.EndPacking(); !errors.Is(err, ErrNotPacking) {
			t.Errorf("EndPacking before BeginPacking: %v", err)
		}
		if _, err := p.chA.BeginPacking("a"); err == nil {
			t.Error("self-connection should fail")
		}
		if _, err := p.chA.BeginPacking("b"); err != nil {
			t.Error(err)
		}
		if err := conn.Unpack(make([]byte, 1), SendCheaper, ReceiveCheaper); !errors.Is(err, ErrNotUnpacking) {
			t.Errorf("Unpack with no message: %v", err)
		}
		conn.Pack([]byte{1}, SendCheaper, ReceiveExpress)
		conn.EndPacking()
	})
	p.pb.Spawn("recv", func() {
		conn, _ := p.chB.BeginUnpacking()
		// Wrong size.
		if err := conn.Unpack(make([]byte, 2), SendCheaper, ReceiveExpress); !errors.Is(err, ErrBlockMismatch) {
			t.Errorf("size mismatch: %v", err)
		}
		// Wrong mode.
		if err := conn.Unpack(make([]byte, 1), SendCheaper, ReceiveCheaper); !errors.Is(err, ErrBlockMismatch) {
			t.Errorf("mode mismatch: %v", err)
		}
		// Premature end.
		if err := conn.EndUnpacking(); !errors.Is(err, ErrBlockMismatch) {
			t.Errorf("premature EndUnpacking: %v", err)
		}
		if err := conn.Unpack(make([]byte, 1), SendCheaper, ReceiveExpress); err != nil {
			t.Error(err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Error(err)
		}
		// Unpacking past the end of a fresh message.
		if err := conn.Unpack(make([]byte, 1), SendCheaper, ReceiveExpress); !errors.Is(err, ErrNotUnpacking) {
			t.Errorf("unpack after end: %v", err)
		}
	})
	p.run(t)
}

func TestClosedChannel(t *testing.T) {
	p := newPair(t, netsim.SCISISCI())
	p.pa.Spawn("main", func() {
		p.chA.Close()
		if _, err := p.chA.BeginPacking("b"); !errors.Is(err, ErrChannelClosed) {
			t.Errorf("got %v, want ErrChannelClosed", err)
		}
	})
	p.run(t)
}

func TestOneChannelPerNetworkPerProcess(t *testing.T) {
	s := vtime.New()
	net := netsim.NewNetwork(s, "sci", netsim.SCISISCI())
	pa := marcel.NewProc(s, "a")
	ia := New(pa)
	if _, err := ia.NewChannel("c1", net); err != nil {
		t.Fatal(err)
	}
	if _, err := ia.NewChannel("c2", net); err == nil {
		t.Fatal("second channel on same network should fail")
	}
	if _, err := ia.NewChannel("c1", net); err == nil {
		t.Fatal("duplicate channel name should fail")
	}
	if _, ok := ia.channels["c1"]; !ok {
		t.Fatal("channel lookup failed")
	}
}

func TestHeadEncodingRoundtrip(t *testing.T) {
	blocks := []blockDesc{
		{place: placeAgg, sendMode: SendCheaper, recvMode: ReceiveExpress, length: 4},
		{place: placeBody, sendMode: SendLater, recvMode: ReceiveCheaper, length: 70000},
		{place: placeAgg, sendMode: SendSafer, recvMode: ReceiveCheaper, length: 3},
	}
	agg := []byte{1, 2, 3, 4, 5, 6, 7}
	buf := encodeHead(42, blocks, agg)
	seq, gotBlocks, gotAgg, err := decodeHead(buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || len(gotBlocks) != 3 || !bytes.Equal(gotAgg, agg) {
		t.Fatalf("roundtrip mismatch: seq=%d blocks=%d", seq, len(gotBlocks))
	}
	for i := range blocks {
		if gotBlocks[i] != blocks[i] {
			t.Fatalf("block %d: got %+v, want %+v", i, gotBlocks[i], blocks[i])
		}
	}
}

func TestHeadDecodingRejectsCorruption(t *testing.T) {
	if _, _, _, err := decodeHead([]byte{1, 2}); err == nil {
		t.Error("truncated head accepted")
	}
	buf := encodeHead(1, []blockDesc{{place: placeAgg, length: 10}}, make([]byte, 10))
	if _, _, _, err := decodeHead(buf[:len(buf)-3]); err == nil {
		t.Error("truncated agg accepted")
	}
	if _, _, _, err := decodeHead(buf[:headFixed+2]); err == nil {
		t.Error("truncated descriptor table accepted")
	}
}

// pingPong measures one-way small-message latency (half round trip) at the
// raw Madeleine level, mirroring the paper's Table 1 methodology.
func pingPong(t *testing.T, params netsim.Params, size, iters int) (latency vtime.Duration) {
	t.Helper()
	p := newPair(t, params)
	var elapsed vtime.Duration
	p.pa.Spawn("ping", func() {
		buf := make([]byte, size)
		start := p.s.Now()
		for i := 0; i < iters; i++ {
			conn, _ := p.chA.BeginPacking("b")
			if size > 0 {
				conn.Pack(buf, SendCheaper, ReceiveCheaper)
			}
			conn.EndPacking()
			conn2, _ := p.chA.BeginUnpacking()
			if size > 0 {
				conn2.Unpack(buf, SendCheaper, ReceiveCheaper)
			}
			conn2.EndUnpacking()
		}
		elapsed = p.s.Now().Sub(start)
	})
	p.pb.Spawn("pong", func() {
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			conn, _ := p.chB.BeginUnpacking()
			if size > 0 {
				conn.Unpack(buf, SendCheaper, ReceiveCheaper)
			}
			conn.EndUnpacking()
			conn2, _ := p.chB.BeginPacking("a")
			if size > 0 {
				conn2.Pack(buf, SendCheaper, ReceiveCheaper)
			}
			conn2.EndPacking()
		}
	})
	p.run(t)
	return elapsed / vtime.Duration(2*iters)
}

// TestTable1RawLatency checks the calibrated raw Madeleine latencies
// against the paper's Table 1 (TCP 121 us, SISCI 4.4 us, BIP 9.2 us).
func TestTable1RawLatency(t *testing.T) {
	cases := []struct {
		params netsim.Params
		want   float64 // us
		tolPct float64
	}{
		{netsim.FastEthernetTCP(), 121, 5},
		{netsim.SCISISCI(), 4.4, 12},
		{netsim.MyrinetBIP(), 9.2, 8},
	}
	for _, c := range cases {
		got := pingPong(t, c.params, 4, 4).Micros()
		if math.Abs(got-c.want)/c.want*100 > c.tolPct {
			t.Errorf("%s raw latency = %.2fus, want %.1fus ±%.0f%%", c.params.Network, got, c.want, c.tolPct)
		}
	}
}

// TestTable1RawBandwidth checks 8 MB bandwidth against Table 1
// (TCP 11.2 MB/s, SISCI 82.6 MB/s, BIP 122 MB/s).
func TestTable1RawBandwidth(t *testing.T) {
	cases := []struct {
		params netsim.Params
		want   float64 // MB/s
	}{
		{netsim.FastEthernetTCP(), 11.2},
		{netsim.SCISISCI(), 82.6},
		{netsim.MyrinetBIP(), 122},
	}
	for _, c := range cases {
		oneWay := pingPong(t, c.params, 8*netsim.MB, 1)
		got := float64(8*netsim.MB) / oneWay.Seconds() / netsim.MB
		if math.Abs(got-c.want)/c.want*100 > 3 {
			t.Errorf("%s raw bandwidth = %.1f MB/s, want %.1f ±3%%", c.params.Network, got, c.want)
		}
	}
}

// Property: any sequence of blocks with any modes roundtrips bit-exactly
// and consumes the whole message.
func TestPackUnpackProperty(t *testing.T) {
	f := func(lens []uint16, modes []uint8) bool {
		if len(lens) == 0 {
			return true
		}
		if len(lens) > 16 {
			lens = lens[:16]
		}
		p := newPair(t, netsim.MyrinetBIP())
		type blk struct {
			data []byte
			sm   SendMode
			rm   RecvMode
		}
		blks := make([]blk, len(lens))
		for i, l := range lens {
			d := make([]byte, int(l)%5000+1)
			for j := range d {
				d[j] = byte(i + j)
			}
			m := uint8(0)
			if len(modes) > 0 {
				m = modes[i%len(modes)]
			}
			blks[i] = blk{data: d, sm: SendMode(m % 3), rm: RecvMode(m / 3 % 2)}
		}
		ok := true
		p.pa.Spawn("send", func() {
			conn, err := p.chA.BeginPacking("b")
			if err != nil {
				ok = false
				return
			}
			for _, b := range blks {
				if err := conn.Pack(b.data, b.sm, b.rm); err != nil {
					ok = false
				}
			}
			if err := conn.EndPacking(); err != nil {
				ok = false
			}
		})
		p.pb.Spawn("recv", func() {
			conn, err := p.chB.BeginUnpacking()
			if err != nil {
				ok = false
				return
			}
			for _, b := range blks {
				got := make([]byte, len(b.data))
				if err := conn.Unpack(got, b.sm, b.rm); err != nil {
					ok = false
					return
				}
				if !bytes.Equal(got, b.data) {
					ok = false
				}
			}
			if err := conn.EndUnpacking(); err != nil {
				ok = false
			}
		})
		if err := p.s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property (§5.2 mechanism): each extra pack operation adds the calibrated
// extra-pack cost to one-way latency, monotonically.
func TestExtraPackCostMonotone(t *testing.T) {
	params := netsim.SCISISCI()
	oneWay := func(nblocks int) vtime.Duration {
		p := newPair(t, params)
		var arrivedAt vtime.Time
		p.pa.Spawn("send", func() {
			conn, _ := p.chA.BeginPacking("b")
			for i := 0; i < nblocks; i++ {
				conn.Pack([]byte{1, 2, 3, 4}, SendCheaper, ReceiveExpress)
			}
			conn.EndPacking()
		})
		p.pb.Spawn("recv", func() {
			conn, _ := p.chB.BeginUnpacking()
			for i := 0; i < nblocks; i++ {
				conn.Unpack(make([]byte, 4), SendCheaper, ReceiveExpress)
			}
			conn.EndUnpacking()
			arrivedAt = p.s.Now()
		})
		p.run(t)
		return arrivedAt.Sub(0)
	}
	t1, t2, t3 := oneWay(1), oneWay(2), oneWay(3)
	d12 := (t2 - t1).Micros()
	d23 := (t3 - t2).Micros()
	want := params.ExtraPackCost.Micros()
	if math.Abs(d12-want) > 0.6 || math.Abs(d23-want) > 0.6 {
		t.Fatalf("per-extra-pack increments = %.2f, %.2f us; want ~%.1f", d12, d23, want)
	}
}
