package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// Stalls inside two of the eight sub-windows must not move the lower
// quartile of the sub-windows' tails, while they do move the plain tail:
// that is the reason the windowed form exists. A slowdown of every
// sub-window must move it in full.
func TestWindowQuantileIgnoresEpisodesNotRegressions(t *testing.T) {
	xs := make([]float64, 800)
	for i := range xs {
		xs[i] = 1
	}
	for _, at := range []int{120, 510} { // ten slow requests in window 1, ten in window 5
		for i := at; i < at+10; i++ {
			xs[i] = 50
		}
	}
	if got := percentile(xs, 0.99); got < 10 {
		t.Fatalf("plain p99 = %v: the stalls should dominate it", got)
	}
	if got := windowQuantile(xs, 0.99, 0.25); !near(got, 1) {
		t.Errorf("windowed p99 = %v, want 1: six of eight windows never saw a stall", got)
	}
	for i := range xs {
		xs[i] *= 1.3
	}
	if got := windowQuantile(xs, 0.5, 0.5); !near(got, 1.3) {
		t.Errorf("windowed p50 after a 30%% slowdown of everything = %v, want 1.3", got)
	}
	if got, want := windowQuantile(xs[:20], 0.99, 0.25), percentile(xs[:20], 0.99); got != want {
		t.Errorf("with too few samples for sub-windows got %v, want the plain quantile %v", got, want)
	}
}

// The cut points are those of Python's statistics.quantiles(xs, n=4), which
// the driver uses: checked against values computed with Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1.5, 2.5, 4, 8, 16}, 2, 4, 12},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
