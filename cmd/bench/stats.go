package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(xs, n=4) uses, so spreads computed here match
// the ones the driver computes. A sample of one has no spread: both quartiles
// are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// rank is the nearest-rank index (1-based) of the p-th percentile among n
// samples; the epsilon keeps 99.9% of 10000 at 9990 despite binary floats.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics: "the highest percentile that has at least ten
// samples beyond it").
const minBeyond = 10

// percentileLadder lists the percentiles the benchmark is willing to report.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestResolvable returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func highestResolvable(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// tail returns the p99 of xs when it is resolvable. When the sample is too
// small it refuses to call anything a p99: it returns the slowest sample and
// resolved=false, and the caller labels the row accordingly.
func tail(xs []float64) (value float64, resolved bool) {
	if highestResolvable(len(xs)) >= 99 {
		return percentile(xs, 99), true
	}
	return percentile(xs, 100), false
}
