package main

import (
	"math"
	"sort"
)

// beyond is the number of samples that must lie above a percentile for
// it to be reported (choosing-metrics: "the highest percentile that has
// at least ten samples beyond it").
const beyond = 10

// tailCandidates are the percentiles a tail metric may fall back to.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// percentile returns the nearest-rank p-quantile of an ascending slice
// (0 for an empty one). No value is interpolated: every result is a
// sample that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small allowance keeps 0.9*100 from rounding up to rank 91.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// supported reports whether n samples leave at least `beyond` of them
// above percentile p.
func supported(n int, p float64) bool {
	return n-rank(n, p) >= beyond
}

// tail returns percentile want of the samples, or — when fewer than
// `beyond` samples lie above it — the highest candidate percentile
// below want that the sample count supports. The percentile actually
// used is returned beside the value.
func tail(sorted []float64, want float64) (value, used float64) {
	for _, p := range tailCandidates {
		if p <= want && supported(len(sorted), p) {
			return percentile(sorted, p), p
		}
	}
	return percentile(sorted, 0.5), 0.5
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// perSlice applies f to each slice's samples, sorted ascending, and
// returns the per-slice values in order. Slices with no samples are
// skipped.
func perSlice(slices [][]float64, f func(sorted []float64) float64) []float64 {
	var vals []float64
	for _, s := range slices {
		if len(s) > 0 {
			vals = append(vals, f(sortedCopy(s)))
		}
	}
	return vals
}

// sliceMedian is the median of the per-slice values: one slow slice (a
// GC cycle, a noisy neighbour) moves it by at most one rank.
func sliceMedian(slices [][]float64, f func(sorted []float64) float64) float64 {
	return median(perSlice(slices, f))
}

func p(q float64) func([]float64) float64 {
	return func(sorted []float64) float64 { return percentile(sorted, q) }
}
