package main

import (
	"sync"
	"syscall"
	"time"
)

// openLoopStats is what an open-loop phase observed, indexed by request in
// schedule order.
type openLoopStats struct {
	// latency is due time → do's completion time: a request that waits
	// behind a stalled predecessor is charged the wait, which a closed loop
	// would hide by simply sending later.
	latency []time.Duration
	// lateness is how long after a request could have begun it did begin:
	// from its due time, or from the completion of the sender's previous
	// request when the system held the connection past that, to the moment
	// the generator started it. A stall of the system is thus charged to
	// latency and a starved or oversleeping generator to lateness.
	lateness []time.Duration
	failed   []bool
}

// openLoop issues n requests on a fixed schedule, request i due at
// start + i/rate, dealt round robin to the given number of senders. Each
// sender has one request outstanding at a time (it models one keep-alive
// connection), waits for a request's due time when it is early, and sends
// at once when it is late. do performs request i and returns the time its
// reply arrived.
func openLoop(start time.Time, n int, rate float64, senders int, do func(sender, i int, due time.Time) (time.Time, error)) openLoopStats {
	st := openLoopStats{latency: make([]time.Duration, n), lateness: make([]time.Duration, n), failed: make([]bool, n)}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var free time.Time // when the sender's connection became free
			for i := s; i < n; i += senders {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				if free.Before(due) {
					free = due
				}
				st.lateness[i] = max(time.Since(free), 0)
				done, err := do(s, i, due)
				free = time.Now()
				st.latency[i] = done.Sub(due)
				st.failed[i] = err != nil
			}
		}(s)
	}
	wg.Wait()
	return st
}

// sleepSlack is how much earlier than the due time sleepUntil asks the
// kernel to wake it: a nanosleep here overshoots by 70 µs at the median and
// 200 µs at the 99th percentile. The remainder is spun away, which costs a
// sender a few percent of a core at Phase A's rate. time.Sleep is no use
// for this: the runtime's timers resolve to a millisecond on this kernel,
// longer than a whole request.
const sleepSlack = 70 * time.Microsecond

// sleepUntil returns at the due time, or at once when it has passed.
func sleepUntil(due time.Time) {
	if wait := time.Until(due) - sleepSlack; wait > 0 {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only lengthens the spin
	}
	for time.Now().Before(due) {
	}
}

// closedLoop runs the given number of senders, each issuing its next
// request as soon as the previous one completes, until the deadline. It
// returns how many requests each sender completed.
func closedLoop(deadline time.Time, senders int, do func(sender, seq int) error) []int {
	counts := make([]int, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				if do(s, seq) != nil {
					return // do keeps the error; the sender is done
				}
				counts[s]++
			}
		}(s)
	}
	wg.Wait()
	return counts
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
