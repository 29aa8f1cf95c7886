package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and how many samples lie strictly beyond its rank. The nearest rank is
// ceil(p/100·n), so percentile(xs, 50) of an odd count is the median.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile for a reported tail: ok is false when fewer
// than minBeyond samples lie beyond the percentile, i.e. the sample cannot
// support that percentile.
func tailPercentile(xs []float64, p float64, minBeyond int) (v float64, beyond int, ok bool) {
	v, beyond = percentile(xs, p)
	return v, beyond, beyond >= minBeyond && len(xs) > 0
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// frac divides with a zero-denominator guard.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
