package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns, since the driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p=%v) = %v, want %v", p, got, want)
		}
	}
}

func TestHighestResolvable(t *testing.T) {
	for n, want := range map[int]float64{
		2: 0, 19: 0, 20: 50, 40: 75, 100: 90, 200: 95, 999: 95, 1000: 99, 2400: 99, 10000: 99.9,
	} {
		if got := highestResolvable(n); got != want {
			t.Errorf("highestResolvable(%d) = %v, want %v", n, got, want)
		}
	}
}

// A pass shortened below 1000 samples must not have its slowest-of-n sample
// passed off as a p99.
func TestTailRefusesSmallSamples(t *testing.T) {
	small := make([]float64, 999)
	large := make([]float64, 1000)
	for i := range large {
		large[i] = float64(i + 1)
		if i < len(small) {
			small[i] = float64(i + 1)
		}
	}
	if v, ok := tail(large); !ok || v != 990 {
		t.Errorf("tail(1000 samples) = %v, %v; want 990, true", v, ok)
	}
	if v, ok := tail(small); ok || v != 999 {
		t.Errorf("tail(999 samples) = %v, %v; want the maximum 999 and false", v, ok)
	}
}
