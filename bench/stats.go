package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified. An empty
// input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quietWindows is how many equal sub-windows, in arrival order, a run's
// operations are cut into before a latency figure is taken from them.
const quietWindows = 8

// windowQuantile cuts xs, in arrival order, into quietWindows sub-windows,
// takes each one's q-quantile and returns the across-quantile of those. With
// fewer than eight samples per sub-window it is the plain q-quantile.
func windowQuantile(xs []float64, q, across float64) float64 {
	k := quietWindows
	if len(xs) < 8*k {
		return percentile(xs, q)
	}
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		per = append(per, percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q))
	}
	return percentile(per, across)
}

// setRoundFigures derives the end-to-end figures every workload takes from
// its timed rounds (bursts, slices or replays) and operations: rates holds a
// round's pods placed per second, cpuUs its CPU microseconds per pod, opMs
// the latency of each operation in arrival order.
//
// On a shared box interference comes in episodes and only ever slows things
// down, so the rounds it missed estimate what the code can do, while a
// regression slows every round. The figures that interference moves most
// therefore take the quartile on the undisturbed side: the upper quartile of
// the rounds' rates, the lower quartile of their CPU cost and of the
// sub-windows' tail latencies. The median latency takes the median of the
// sub-windows' medians instead: the daemon's acks have a fast state of their
// own that a minority of sub-windows catch, and a lower quartile would
// report whichever state reached a quarter of them.
func setRoundFigures(r *result, rates, cpuUs, opMs []float64) {
	r.set("placements_per_s", percentile(rates, 0.75))
	r.set("cpu_us_per_placement", percentile(cpuUs, 0.25))
	r.set("op_p50_ms", windowQuantile(opMs, 0.50, 0.50))
	r.set("op_p95_ms", windowQuantile(opMs, 0.95, 0.25))
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the default "exclusive" method), which is what the driver uses to
// judge spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median, the steadiness figure the driver holds against a bound.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
