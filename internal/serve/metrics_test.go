package serve

import (
	"strings"
	"testing"
	"time"
)

// TestWritePromExposition: the Prometheus rendering is parseable and
// carries the histogram invariants (cumulative buckets, +Inf == count).
func TestWritePromExposition(t *testing.T) {
	m := newMetrics(4, func() int { return 2 })
	m.requests.Add(2)
	m.response(3*time.Millisecond, time.Millisecond, 2*time.Millisecond)
	m.response(5*time.Millisecond, time.Millisecond, 4*time.Millisecond)
	var b strings.Builder
	m.reg.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"haft_serve_requests_total 2",
		"haft_serve_latency_seconds_count 2",
		`haft_serve_latency_seconds_bucket{le="+Inf"} 2`,
		"haft_serve_pool_size 4",
		"haft_serve_queue_depth 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
