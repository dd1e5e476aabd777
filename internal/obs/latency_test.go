package obs

import (
	"testing"
	"time"
)

// TestPercentileAfterReservoirWrap is the regression test for the
// wrapped-reservoir bug: once more than reservoirSize samples arrive,
// the sliding-window ring is no longer in insertion order, so
// percentiles computed from an unsorted snapshot were garbage. The
// percentile must always sort its snapshot.
func TestPercentileAfterReservoirWrap(t *testing.T) {
	var l Latency
	// 1500 monotonically increasing latencies: after the wrap the ring
	// holds ms 1025..1500 in slots 0..475 followed by ms 477..1024 in
	// slots 476..1023 — maximally out of order for an ascending stream.
	for ms := 1; ms <= 1500; ms++ {
		l.Observe(time.Duration(ms) * time.Millisecond)
	}
	// The window is exactly ms 477..1500; with a sorted snapshot the
	// percentiles are exact.
	wantMs := func(q float64) float64 {
		idx := int(q * float64(reservoirSize))
		if idx >= reservoirSize {
			idx = reservoirSize - 1
		}
		return float64(int64(477+idx)*int64(time.Millisecond)) / 1e9
	}
	h := l.Snapshot()
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, want := h.Percentile(q), wantMs(q); got != want {
			t.Fatalf("p%g = %gs, want %gs (unsorted reservoir?)", 100*q, got, want)
		}
	}
	if p50, p99 := h.Percentile(0.5), h.Percentile(0.99); p50 > p99 {
		t.Fatalf("p50 %g > p99 %g: percentiles not monotonic", p50, p99)
	}
}

// TestPercentileBeforeWrap: a partially filled reservoir still sorts
// (samples arrive unsorted even before wrapping).
func TestPercentileBeforeWrap(t *testing.T) {
	var l Latency
	for _, ms := range []int{900, 100, 500, 300, 700} {
		l.Observe(time.Duration(ms) * time.Millisecond)
	}
	h := l.Snapshot()
	if got := h.Percentile(0.5); got != 0.5 {
		t.Fatalf("p50 = %gs, want 0.5s", got)
	}
	if got := h.Percentile(0); got != 0.1 {
		t.Fatalf("p0 = %gs, want 0.1s", got)
	}
}

// TestHistogramFallback: with no raw samples the bucket approximation
// still answers (upper bound of the bucket holding the quantile).
func TestHistogramFallback(t *testing.T) {
	h := &LatencySnapshot{Count: 10}
	h.counts[histBucket(time.Millisecond)] = 10
	if got := h.Percentile(0.5); got <= 0 {
		t.Fatalf("fallback percentile = %g, want > 0", got)
	}
}

// TestLatencyHistogram: bucket math sanity.
func TestLatencyHistogram(t *testing.T) {
	var l Latency
	for i := 1; i <= 1000; i++ {
		l.Observe(1000 * 1000) // 1ms
	}
	h := l.Snapshot()
	p50 := h.Percentile(0.50)
	if p50 < 0.0009 || p50 > 0.0014 {
		t.Fatalf("p50 of constant 1ms stream = %v s", p50)
	}
	if h.Percentile(0.99) < p50 {
		t.Fatalf("p99 < p50")
	}
}
