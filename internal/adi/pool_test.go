package adi

import (
	"testing"

	"mpichmad/internal/marcel"
	"mpichmad/internal/vtime"
)

// mustPanic reports whether fn panicked.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A request of an engine's free list comes back cleared, with its Done
// event unfired under the new name; between its Release and the next
// NewSend or NewRecv every use of the stale handle panics — waiting on it,
// completing it, posting it, releasing it again — and so does releasing a
// request no engine handed out.
func TestStaleHandleRequests(t *testing.T) {
	s := vtime.New()
	e := NewEngine(marcel.NewProc(s, "r0"), 0)
	s.Go("main", func() {
		sr := e.NewSend("first")
		sr.Data, sr.Err = []byte("payload"), ErrTruncate
		sr.Done.Fire()
		sr.Done.Wait()
		sr.Release()
		mustPanic(t, "Wait on a released send request", sr.Done.Wait)
		mustPanic(t, "Fire of a released send request", sr.Done.Fire)
		mustPanic(t, "a second Release of a send request", sr.Release)
		if again := e.NewSend("second"); again != sr || again.Data != nil || again.Err != nil || again.Done.Fired() {
			t.Errorf("the send request handed out again is not the released one, cleared: %+v", again)
		}

		rr := e.NewRecv("first")
		rr.Src, rr.Buf = 3, make([]byte, 4)
		rr.OnComplete = func() {}
		FinishRecv(rr, Envelope{Src: 3, Len: 4}, nil)
		rr.Release()
		mustPanic(t, "Wait on a released receive request", rr.Done.Wait)
		mustPanic(t, "PostRecv of a released receive request", func() { e.PostRecv(rr) })
		mustPanic(t, "completion of a released receive request", func() { FinishRecv(rr, Envelope{}, nil) })
		mustPanic(t, "a second Release of a receive request", rr.Release)
		if again := e.NewRecv("second"); again != rr || again.Buf != nil || again.OnComplete != nil || again.Status != (Status{}) || again.Done.Fired() {
			t.Errorf("the receive request handed out again is not the released one, cleared: %+v", again)
		}

		mustPanic(t, "Release of a hand-made send request", (&SendReq{Done: vtime.NewEvent(s, "x")}).Release)
		mustPanic(t, "Release of a hand-made receive request", (&RecvReq{Done: vtime.NewEvent(s, "x")}).Release)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
