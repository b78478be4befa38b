package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count). It returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (exclusive method), which is what
// the pipeline computes spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, 0 when
// there are too few values to have quartiles.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailPercentile applies the reporting rule for timings: the highest of
// p99.9/p99/p95/p90 that still has at least ten samples beyond it. It
// returns the percentile (0 when the sample is too small for any) and its
// value by the nearest-rank method.
func tailPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, permille := range []int{999, 990, 950, 900} {
		rank := (permille*n + 999) / 1000 // ceil, in integers: 99.9/100*n is not exact
		if rank >= 1 && n-rank >= 10 {
			return float64(permille) / 10, s[rank-1]
		}
	}
	return 0, 0
}
