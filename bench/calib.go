package main

import "time"

// The host this benchmark runs on is shared, and its speed drifts: for
// tens of seconds at a time everything runs 10 to 25 % slower, which is
// more than the differences the benchmark exists to show. So every run
// times a fixed reference loop beside its repetitions and reports the
// host-clock end-to-end metrics at the reference's nominal speed:
//
//	host_s = median raw seconds × refNominal / median reference seconds
//
// A slow episode stretches both and cancels; a change to the simulator
// moves only the numerator. The loop uses nothing of the repository —
// goroutine hand-offs over an unbuffered channel, large copies, small
// allocations, roughly the mix a repetition spends its time on — so no
// change to the program can move it. The raw median and the reference
// time are reported as stack.host_raw_s and runtime.ref_loop_ms.

// refNominal is about what the reference loop takes on this container
// when it is quiet; with it, host_s reads as seconds of a quiet container.
const refNominal = 100 * time.Millisecond

var refSink [][]byte

func refLoop() time.Duration {
	t0 := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 120000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong // the echo goroutine has ended
	src, dst := make([]byte, 4<<20), make([]byte, 4<<20)
	for i := 0; i < 48; i++ {
		copy(dst, src)
	}
	for i := 0; i < 240000; i++ {
		refSink = append(refSink, make([]byte, 96))
	}
	refSink = nil
	return time.Since(t0)
}
