package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Declare("haft_runs", "counter", "runs so far")
	r.Add("haft_runs", `model="reg"`, 3)
	r.Add("haft_runs", `model="reg"`, 2)
	r.Set("haft_moe", `model="mem"`, 0.125)
	r.Set("haft_up", "", 1)
	var b strings.Builder
	r.WriteProm(&b)
	got := b.String()
	want := `# TYPE haft_moe gauge
haft_moe{model="mem"} 0.125
# HELP haft_runs runs so far
# TYPE haft_runs counter
haft_runs{model="reg"} 5
# TYPE haft_up gauge
haft_up 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if v := r.View(); len(v) != 3 || v[`haft_runs{model="reg"}`] != 5 || v[`haft_moe{model="mem"}`] != 0.125 || v["haft_up"] != 1 {
		t.Fatalf("view = %v", v)
	}
}

func TestRegistryDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Set("zz", `b="2"`, 2)
	r.Set("zz", `a="1"`, 1)
	r.Set("aa", "", 0)
	var b1, b2 strings.Builder
	r.WriteProm(&b1)
	r.WriteProm(&b2)
	if b1.String() != b2.String() {
		t.Fatalf("two scrapes differ")
	}
	if !strings.HasPrefix(b1.String(), "# TYPE aa gauge") {
		t.Fatalf("families not sorted:\n%s", b1.String())
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	var zz []string
	for _, l := range lines {
		if strings.HasPrefix(l, "zz{") {
			zz = append(zz, l)
		}
	}
	if len(zz) != 2 || !strings.HasPrefix(zz[0], `zz{a=`) {
		t.Fatalf("samples not sorted: %v", zz)
	}
}

func TestRegistryNilIsNoop(t *testing.T) {
	var r *Registry
	r.Declare("x", "gauge", "")
	r.Set("x", "", 1)
	r.Add("x", "", 1)
	var b strings.Builder
	r.WriteProm(&b)
	if b.String() != "" || len(r.View()) != 0 {
		t.Fatalf("nil registry wrote %q, viewed %v", b.String(), r.View())
	}
}

// TestDeclaredMetrics: every declared kind renders under its family,
// counters as plain integers however large, labelled samples sorted,
// and one Latency feeds its gauges and its histogram from one copy.
func TestDeclaredMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_events_total", "events")
	c.Add(1_000_000)
	c.Inc()
	g := r.Gauge("t_busy", "busy workers")
	g.Add(3)
	g.Add(-1)
	v := r.CounterVec("t_runs_total", "runs by status", "status")
	v.With("ok").Add(5)
	v.With("crashed").Inc()
	r.GaugeFunc("t_up", "node up", func(emit func(string, float64)) {
		emit(`node="b"`, 0)
		emit(`node="a"`, 1)
	})
	l := r.Latency("t_lat", "request latency", " (end to end)")
	r.Histogram("t_lat_seconds", "request latency distribution", l)
	l.Observe(3 * time.Millisecond)
	l.Observe(5 * time.Millisecond)

	var b strings.Builder
	r.WriteProm(&b)
	want := `# HELP t_busy busy workers
# TYPE t_busy gauge
t_busy 2
# HELP t_events_total events
# TYPE t_events_total counter
t_events_total 1000001
# HELP t_lat_max_seconds maximum request latency
# TYPE t_lat_max_seconds gauge
t_lat_max_seconds 0.005
# HELP t_lat_p50_seconds median request latency (end to end)
# TYPE t_lat_p50_seconds gauge
t_lat_p50_seconds 0.005
# HELP t_lat_p95_seconds 95th percentile request latency
# TYPE t_lat_p95_seconds gauge
t_lat_p95_seconds 0.005
# HELP t_lat_p99_seconds 99th percentile request latency
# TYPE t_lat_p99_seconds gauge
t_lat_p99_seconds 0.005
# HELP t_lat_seconds request latency distribution
# TYPE t_lat_seconds histogram
t_lat_seconds_bucket{le="0.00314573"} 1
t_lat_seconds_bucket{le="0.00524288"} 2
t_lat_seconds_bucket{le="+Inf"} 2
t_lat_seconds_sum 0.008
t_lat_seconds_count 2
# HELP t_runs_total runs by status
# TYPE t_runs_total counter
t_runs_total{status="crashed"} 1
t_runs_total{status="ok"} 5
# HELP t_up node up
# TYPE t_up gauge
t_up{node="a"} 1
t_up{node="b"} 0
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got := v.Values(); got["ok"] != 5 || got["crashed"] != 1 || len(got) != 2 {
		t.Fatalf("CounterVec.Values = %v", got)
	}
	// The view is the exposition's sample lines, histograms left out.
	var samples []string
	for _, line := range strings.Split(want, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "t_lat_seconds") {
			samples = append(samples, line)
		}
	}
	var vt strings.Builder
	r.View().WriteText(&vt)
	if got, want := vt.String(), strings.Join(samples, "\n")+"\n"; got != want {
		t.Fatalf("view mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDeclaredMetricsConcurrent updates every declared kind from several
// goroutines while scraping (run under -race); counts must add up.
func TestDeclaredMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_c", "")
	g := r.Gauge("t_g", "")
	v := r.CounterVec("t_v", "", "k")
	l := r.Latency("t_l", "latency", "")
	r.Histogram("t_l_seconds", "", l)
	const workers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				v.With(string(rune('a' + w))).Inc()
				l.Observe(time.Duration(i) * time.Microsecond)
				g.Add(-1)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		r.WriteProm(io.Discard)
	}
	wg.Wait()
	snap := l.Snapshot()
	if c.Load() != workers*per || g.Load() != 0 || snap.Count != workers*per || len(v.Values()) != workers {
		t.Fatalf("lost updates: counter %d gauge %d latency %d vec %v", c.Load(), g.Load(), snap.Count, v.Values())
	}
	if p50, p99 := snap.Percentile(0.5), snap.Percentile(0.99); p50 <= 0 || p50 > p99 || p99 > snap.Max.Seconds() {
		t.Fatalf("percentiles out of order: p50 %g p99 %g max %g", p50, p99, snap.Max.Seconds())
	}
}

// TestSplitMix64 pins the mixer to the reference splitmix64 sequence
// (seed 0): campaign seeds, scenario seeds and ring placement hang
// off these constants.
func TestSplitMix64(t *testing.T) {
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64(0) = %#x", got)
	}
	if got := SplitMix64(0x9e3779b97f4a7c15); got != 0x6e789e6aa1b965f4 {
		t.Fatalf("second output = %#x", got)
	}
}
