package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A fake server that stalls once: request 10 takes 30 ms on a schedule of
// one request per millisecond. An open loop must charge the stall to every
// request that came due behind it, not only to the stalled one; a generator
// that timed from the actual send would report one slow request and hide
// the rest (coordinated omission). The generator itself was never the
// cause, so its lateness must stay small throughout.
func TestOpenLoopChargesStallToFollowers(t *testing.T) {
	const n, rate, stalled = 40, 1000.0, 10
	const stall = 30 * time.Millisecond
	var calls atomic.Int64
	st := openLoop(time.Now().Add(2*time.Millisecond), n, rate, 1, func(_, i int, _ time.Time) (time.Time, error) {
		calls.Add(1)
		if i == stalled {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	if calls.Load() != n {
		t.Fatalf("%d requests issued, want %d", calls.Load(), n)
	}
	for i := 0; i < stalled; i++ {
		if st.latency[i] > 10*time.Millisecond {
			t.Errorf("request %d ahead of the stall took %v", i, st.latency[i])
		}
	}
	if st.latency[stalled] < stall {
		t.Errorf("stalled request took %v, want at least %v", st.latency[stalled], stall)
	}
	// Request 10+k came due k ms into the stall and could not start before
	// it ended: it waited at least stall - k ms, through no fault of its own.
	for k := 1; k <= 20; k++ {
		want := stall - time.Duration(k)*time.Millisecond
		if got := st.latency[stalled+k]; got < want-time.Millisecond {
			t.Errorf("request %d, due %d ms into the stall, is charged %v; want at least %v", stalled+k, k, got, want)
		}
	}
	// Once the backlog is sent the schedule is met again.
	if got := st.latency[n-1]; got > 10*time.Millisecond {
		t.Errorf("last request took %v: the loop never caught up", got)
	}
	for i, late := range st.lateness {
		if late > 10*time.Millisecond {
			t.Errorf("request %d: generator lateness %v, but only the server ever held the connection", i, late)
		}
	}
}

// A request is never sent ahead of its due time, whatever the sleep does.
func TestOpenLoopNeverSendsEarly(t *testing.T) {
	start := time.Now().Add(time.Millisecond)
	const n, rate = 50, 5000.0
	sent := make([]time.Time, n)
	openLoop(start, n, rate, 2, func(_, i int, _ time.Time) (time.Time, error) {
		sent[i] = time.Now()
		return sent[i], nil
	})
	for i, at := range sent {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if at.Before(due) {
			t.Errorf("request %d sent %v before it was due", i, due.Sub(at))
		}
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	counts := closedLoop(time.Now().Add(30*time.Millisecond), 2, func(_, _ int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	for s, c := range counts {
		if c < 3 || c > 40 {
			t.Errorf("sender %d completed %d requests of 1 ms in 30 ms", s, c)
		}
	}
}
