package obs

import (
	"math/bits"
	"slices"
	"sync"
	"time"
)

// histBucketsPerOctave gives the latency histogram ~25% relative
// resolution: each power-of-two nanosecond octave is split in four.
const histBucketsPerOctave = 4

// maxHistBuckets covers latencies up to 2^63 ns.
const maxHistBuckets = 64 * histBucketsPerOctave

// reservoirSize bounds the sliding window of raw latency samples kept
// for exact percentiles (the histogram's ~25% bucket resolution is too
// coarse for tail reporting).
const reservoirSize = 1024

// Latency is a log-scaled histogram of durations plus a bounded
// reservoir of the most recent raw samples. Declare one with
// Registry.Latency; Observe is safe for concurrent use.
type Latency struct {
	mu     sync.Mutex
	counts [maxHistBuckets]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
	// samples is a sliding-window ring of the last reservoirSize
	// durations in nanoseconds. Once count wraps past the capacity the
	// ring is NOT in insertion order, and even before that samples
	// arrive unsorted — a snapshot must always sort its copy.
	samples []int64
}

func histBucket(d time.Duration) int {
	ns := uint64(d)
	if ns < 2 {
		return 0
	}
	oct := bits.Len64(ns) - 1
	frac := 0
	if oct >= 2 {
		frac = int((ns >> (oct - 2)) & 3)
	}
	return oct*histBucketsPerOctave + frac
}

// bucketUpper is the inclusive upper bound of a bucket in nanoseconds.
func bucketUpper(b int) float64 {
	oct := b / histBucketsPerOctave
	frac := b % histBucketsPerOctave
	return float64(uint64(1)<<oct) * (1 + float64(frac+1)/4)
}

// Observe records one duration (negative durations count as zero).
func (l *Latency) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.mu.Lock()
	l.counts[histBucket(d)]++
	if len(l.samples) < reservoirSize {
		l.samples = append(l.samples, int64(d))
	} else {
		l.samples[l.count%reservoirSize] = int64(d)
	}
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.mu.Unlock()
}

// LatencySnapshot is a copy of a Latency's state. Taking it holds the
// Latency's lock only for the copy; the sort percentiles need happens
// once, on the copy, on the first Percentile call.
type LatencySnapshot struct {
	Count    uint64
	Sum, Max time.Duration
	counts   [maxHistBuckets]uint64
	samples  []int64
	sorted   bool
}

// Snapshot copies the current state.
func (l *Latency) Snapshot() *LatencySnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &LatencySnapshot{Count: l.count, Sum: l.sum, Max: l.max,
		counts: l.counts, samples: slices.Clone(l.samples)}
}

// Mean returns the mean observed duration in seconds.
func (s *LatencySnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum.Seconds() / float64(s.Count)
}

// Percentile returns the q-th (0..1) percentile in seconds, exact over
// the reservoir window.
func (s *LatencySnapshot) Percentile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if len(s.samples) == 0 {
		return s.bucketPercentile(q)
	}
	if !s.sorted {
		slices.Sort(s.samples)
		s.sorted = true
	}
	idx := int(q * float64(len(s.samples)))
	if idx >= len(s.samples) {
		idx = len(s.samples) - 1
	}
	return float64(s.samples[idx]) / 1e9
}

// bucketPercentile is the histogram-resolution fallback (exact to
// ~25%), used only when no raw samples exist.
func (s *LatencySnapshot) bucketPercentile(q float64) float64 {
	want := uint64(q * float64(s.Count))
	if want >= s.Count {
		want = s.Count - 1
	}
	var cum uint64
	for b, c := range s.counts {
		cum += c
		if cum > want {
			return bucketUpper(b) / 1e9
		}
	}
	return s.Max.Seconds()
}
