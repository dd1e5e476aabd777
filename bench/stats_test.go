package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A percentile is reported only with at least ten samples beyond it;
// otherwise the next lower supported one stands in.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{10000, 0.999, 0.999}, // exactly 10 beyond
		{9999, 0.999, 0.99},
		{1000, 0.99, 0.99},
		{999, 0.99, 0.9},
		{100, 0.99, 0.9},
		{99, 0.9, 0.5},
		{20, 0.9, 0.5},
		{5, 0.999, 0.5}, // nothing supported: the median
	} {
		v, used := tail(seq(c.n), c.want)
		if used != c.used {
			t.Errorf("tail(n=%d, p%v) used p%v, want p%v", c.n, c.want, used, c.used)
		}
		if want := percentile(seq(c.n), c.used); v != want {
			t.Errorf("tail(n=%d, p%v) = %v, want %v", c.n, c.want, v, want)
		}
	}
}

func TestSliceMedianIgnoresOneSlowSlice(t *testing.T) {
	slices := [][]float64{{3, 1, 2}, {2, 3, 1}, {100, 300, 200}, nil, {1, 2, 3}}
	if got := sliceMedian(slices, p(0.5)); got != 2 {
		t.Errorf("sliceMedian = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

// spread must equal (q3-q1)/median with Python's
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75,
// 5.5 and 8.25.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{16, 1, 8, 2, 4}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := worse(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worse(higher) = %v, want 0.1", got)
	}
	if got := worse(100, 90, "lower"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worse(lower) = %v, want -0.1", got)
	}
}
