package core

// Tests and benchmarks of the payload path: who owns a body's buffer from
// the sender's Pack to the receiver's copy-out, across eager landing,
// unexpected stashing and gateway relay, and what a message costs the host.
// go test poisons a wire buffer when it is released and panics on a second
// release (netsim.Buf), so every payload comparison in this package is
// also a check that nobody reads a body after letting go of it.

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// pingPongs sets up n round trips of size bytes between ranks a and b of a
// started rig — both receives posted ahead of the sends — and returns the
// function that runs them and checks the last payload. warmed, when not
// nil, is called on a's thread once the first round trip is complete.
func pingPongs(tb testing.TB, r *wireRig, a, b, size, n int, warmed func()) (run func()) {
	payload := pattern(size)
	side := func(me, peer int, lead bool) func() {
		buf := make([]byte, size)
		return func() {
			send := func() {
				sr := r.engs[me].NewSend("send")
				sr.Env, sr.Dst, sr.Data = adi.Envelope{Src: me, Tag: 1, Len: size}, peer, payload
				r.devs[me].Send(sr)
				sr.Done.Wait()
				if sr.Err != nil {
					tb.Error(sr.Err)
				}
				sr.Release()
			}
			for i := 0; i < n; i++ {
				rr := r.engs[me].NewRecv("recv")
				rr.Src, rr.Tag, rr.Buf = peer, 1, buf
				r.engs[me].PostRecv(rr)
				if lead {
					send()
				}
				rr.Done.Wait()
				if rr.Err != nil {
					tb.Error(rr.Err)
				}
				rr.Release()
				if !lead {
					send()
				} else if i == 0 && warmed != nil {
					warmed()
				}
			}
			if n > 0 && !bytes.Equal(buf, payload) {
				tb.Errorf("rank %d: payload corrupted", me)
			}
		}
	}
	r.procs[a].Spawn("ping", side(a, b, true))
	r.procs[b].Spawn("pong", side(b, a, false))
	return func() { r.run(tb) }
}

// directPingPongs is pingPongs over one SCI hop (eager up to 8 KiB,
// rendez-vous above); relayedPingPongs crosses the SCI -> gateway -> TCP
// chain with a relay window of 16, the body cut into four relay segments.
func directPingPongs(tb testing.TB, size, n int) func() {
	return pingPongs(tb, pairRig(tb, true), 0, 1, size, n, nil)
}

func relayedPingPongs(tb testing.TB, size, n int) func() {
	r := chainRig(tb, 16, size/4)
	r.start()
	return pingPongs(tb, r, 0, 2, size, n, nil)
}

func benchPingPongs(b *testing.B, setup func(testing.TB, int, int) func(), size int) {
	run := setup(b, size, b.N)
	b.ReportAllocs()
	b.SetBytes(int64(2 * size))
	b.ResetTimer()
	run()
}

func BenchmarkEagerRoundTrip4K(b *testing.B)    { benchPingPongs(b, directPingPongs, 4<<10) }
func BenchmarkRndvRoundTrip64K(b *testing.B)    { benchPingPongs(b, directPingPongs, 64<<10) }
func BenchmarkRndvRoundTrip1M(b *testing.B)     { benchPingPongs(b, directPingPongs, 1<<20) }
func BenchmarkRelayedRoundTrip64K(b *testing.B) { benchPingPongs(b, relayedPingPongs, 64<<10) }

// steadyBytesPerOp is what one more round trip allocates once the set-up
// and warm-up of run(n) are paid.
func steadyBytesPerOp(run func(n int)) int {
	total := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := total(50), total(250)
	return int(long-short) / 200
}

// In steady state no round trip allocates a payload-sized object: a body
// is lent to the wire and lands in the posted buffer (rendez-vous), or
// rides wire buffers that already exist — settled into one by EndPacking,
// landed from it (eager) or handed on in it (relay). What a
// round trip does allocate is its head packets, descriptors, requests and
// temporary threads, so it is the same for a payload four times as large
// sent as the same messages, and less than one payload.
func TestRoundTripsAllocateNoPayload(t *testing.T) {
	cases := []struct {
		name  string
		setup func(testing.TB, int, int) func()
		size  int
	}{
		{"eager 4 KiB", directPingPongs, 4 << 10},
		{"rendez-vous 64 KiB", directPingPongs, 64 << 10},
		{"relayed 64 KiB", relayedPingPongs, 64 << 10},
	}
	for _, c := range cases {
		at := func(size int) int {
			return steadyBytesPerOp(func(n int) { c.setup(t, size, n)() })
		}
		small, big := at(c.size/4), at(c.size)
		if big-small > 256 || big >= c.size {
			t.Errorf("%s: a round trip allocates %d B (%d B at a quarter of the payload): payload buffers are being made per message",
				c.name, big, small)
		}
	}
}

// Copied once: a direct rendez-vous body goes from the sender's buffer into
// the posted receive buffer and through nothing else. In steady state 1 MiB
// round trips allocate nothing the size of a body and take no wire buffer
// of its class — the networks draw from new, empty lists after the
// warm-up, so taking one would mean making one. The guard that keeps Pack's
// snapshot, or an Unpack through a taken buffer, from coming back unnoticed.
func TestRndvBodyCopiedOnce(t *testing.T) {
	const size, trips = 1 << 20, 4
	r := pairRig(t, true)
	var before, after runtime.MemStats
	var warm []*netsim.BufList
	pingPongs(t, r, 0, 1, size, 1+trips, func() {
		for _, ch := range r.chans[0] {
			warm = append(warm, ch.Net.Bufs())
			ch.Net.SetBufs(new(netsim.BufList))
		}
		runtime.ReadMemStats(&before)
	})()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("%d rendez-vous round trips of %d bytes allocated %d bytes: bodies are being copied through buffers made for them",
			trips, size, grew)
	}
	if r.devs[0].NRndv != 1+trips {
		t.Errorf("%d rendez-vous sends, want %d", r.devs[0].NRndv, 1+trips)
	}
	out := bufsOut(r)
	for _, l := range warm {
		out += l.Out()
	}
	if out != 0 {
		t.Errorf("%d wire buffers still out", out)
	}
}

// bufsOut sums, over the networks of a rig, the wire buffers handed out
// and not yet released.
func bufsOut(r *wireRig) int {
	out := 0
	for _, ch := range r.chans[0] {
		out += ch.Net.Bufs().Out()
	}
	return out
}

// Every path a body can take ends with its buffer home: eager matched and
// unexpected, rendez-vous whole, relayed as a segment train through a
// gateway (store taken, handed on), truncating receives, and the no-route
// drop at a gateway.
func TestEveryBodyBufferComesHome(t *testing.T) {
	r := chainRig(t, 2, 4<<10)
	r.start()
	type msg struct{ from, to, size, post int } // post: receive buffer size
	msgs := []msg{
		{0, 1, 100, 100}, {0, 1, 4 << 10, 4 << 10}, {0, 1, 64 << 10, 64 << 10}, // direct
		{0, 2, 100, 100}, {0, 2, 4 << 10, 4 << 10}, {0, 2, 64 << 10, 64 << 10}, // relayed
		{2, 0, 6 << 10, 1 << 10}, {0, 2, 64 << 10, 10}, // truncated: eager, relayed rendez-vous
	}
	for i, m := range msgs {
		payload := pattern(m.size)
		r.procs[m.from].Spawn("send", func() {
			sr := &adi.SendReq{
				Env: adi.Envelope{Src: m.from, Tag: i, Len: m.size},
				Dst: m.to, Data: payload, Done: vtime.NewEvent(r.s, "send"),
			}
			r.devs[m.from].Send(sr)
			sr.Done.Wait()
			if sr.Err != nil {
				t.Error(sr.Err)
			}
		})
		r.procs[m.to].Spawn("recv", func() {
			if i%2 == 1 {
				r.procs[m.to].Sleep(20 * vtime.Millisecond) // odd messages arrive unexpected
			}
			rr := &adi.RecvReq{Src: m.from, Tag: i, Buf: make([]byte, m.post), Done: vtime.NewEvent(r.s, "recv")}
			r.engs[m.to].PostRecv(rr)
			rr.Done.Wait()
			if !bytes.Equal(rr.Buf, payload[:m.post]) {
				t.Errorf("message %d (%d -> %d, %d bytes): corrupted", i, m.from, m.to, m.size)
			}
		})
	}
	r.run(t)
	if r.devs[1].NForwarded == 0 {
		t.Error("nothing crossed the gateway")
	}
	if out := bufsOut(r); out != 0 {
		t.Errorf("%d wire buffers still out after every message was received", out)
	}

	s, procs, devs := brokenGatewayRig(t)
	procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 1, Len: 4 << 10},
			Dst: 2, Data: pattern(4 << 10), Done: vtime.NewEvent(s, "send"),
		}
		devs[0].Send(sr)
		sr.Done.Wait()
	})
	procs[1].Spawn("linger", func() { procs[1].Sleep(50 * vtime.Millisecond) }) // keeps the gateway polling
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if devs[1].NRelayDrops != 1 {
		t.Fatalf("gateway drops = %d, want 1", devs[1].NRelayDrops)
	}
	for _, ch := range devs[1].Channels() {
		if out := ch.Net.Bufs().Out(); out != 0 {
			t.Errorf("%s: %d wire buffers still out after the gateway dropped what it could not route", ch.Net.Name, out)
		}
	}
}

// A ch_mad eager 4 KiB round trip allocates nothing once set up, and the
// budget of 1 is for a stray runtime allocation. Madeleine's message records
// are the connection's own, its head packets the network's and reused with
// their deliveries, the ch_mad header is encoded in the head, and the
// requests and their events come from the engines' free lists (20 when
// heads, deliveries, headers and requests were made per message, 34 when
// every message also made its Madeleine records anew).
func TestAllocBudgetEagerRoundTrip4K(t *testing.T) {
	const short, long = 50, 250
	at := func(n int) float64 { return testing.AllocsPerRun(3, func() { directPingPongs(t, 4<<10, n)() }) }
	// Rounded: a stray runtime allocation (the race detector's) or two
	// shows in the difference of two whole-run averages.
	per := (at(long) - at(short)) / (long - short)
	t.Logf("an eager 4 KiB round trip allocates %.2f times", per)
	if math.Round(per) > 1 {
		t.Errorf("an eager 4 KiB round trip allocates %.2f times, budget 1", per)
	}
}
