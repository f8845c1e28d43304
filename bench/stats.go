package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted slice: the smallest element with at least p% of the
// samples at or below it, so every reported value was actually observed.
// It is the definition ids.SummarizeLatency uses, extended to fractional p.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product that is a whole number up to rounding
	// (99.9 % of 1,000) from being pushed to the next rank.
	idx := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// beyond counts the samples strictly above v in an ascending-sorted slice;
// a percentile is only worth reporting when at least ten lie beyond it.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
}

// median returns the middle value (mean of the middle two for an even
// count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf maps every element through f and returns the median value.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// sortedFloats converts nanosecond samples to an ascending float64 slice
// scaled by div (1e3 for microseconds).
func sortedFloats(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}
