package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a minimal metric registry rendering Prometheus text
// exposition format (version 0.0.4); it is the only code in the repo
// that formats exposition text, so the debug endpoints need no
// external client library. A layer states its vocabulary once, at
// construction, in one of two ways:
//
//   - event counts it updates on its hot path are *declared metrics*:
//     Counter, Gauge, CounterVec, Latency (+ Histogram) and GaugeFunc
//     return a handle (or take a callback) and the call site is
//     `m.retries.Inc()` — no lock, no name;
//   - values computed elsewhere and published now and then (a
//     campaign's per-model rates) go through Declare + Set/Add, keyed
//     by a pre-rendered label string (`model="reg",flow="any"`).
//
// WriteProm emits everything deterministically sorted by family name.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	typ, help string
	samples   map[string]float64 // Set/Add samples by label body
	collect   func(*scrape)      // declared metric: renders its own samples
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Declare registers a metric family for Set/Add samples. typ is
// "counter" or "gauge". Declaring twice updates the help text.
func (r *Registry) Declare(name, typ, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{samples: make(map[string]float64)}
		r.families[name] = f
	}
	f.typ, f.help = typ, help
}

// Set stores a sample. labels is a pre-rendered Prometheus label body
// (`model="reg"`) or "" for an unlabeled metric. Undeclared families
// are implicitly declared as gauges.
func (r *Registry) Set(name, labels string, v float64) { r.sample(name, labels, v, false) }

// Add accumulates into a sample (for counter-style updates).
func (r *Registry) Add(name, labels string, v float64) { r.sample(name, labels, v, true) }

func (r *Registry) sample(name, labels string, v float64, add bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{typ: "gauge", samples: make(map[string]float64)}
		r.families[name] = f
	}
	if add {
		v += f.samples[labels]
	}
	f.samples[labels] = v
}

// declare registers a declared metric's family. A name can be declared
// once: two handles behind one family is a bug in the declaring layer.
func (r *Registry) declare(name, typ, help string, collect func(*scrape)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families[name] != nil {
		panic("obs: metric " + name + " declared twice")
	}
	r.families[name] = &family{typ: typ, help: help, collect: collect}
}

// Counter is a monotonically increasing count, updated atomically
// (Inc, Add, Load; Store is for counts an audit recomputes).
type Counter struct{ atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Counter declares a counter family with a single unlabelled sample.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.declare(name, "counter", help, func(s *scrape) { s.uint("", "", c.Load()) })
	return c
}

// Gauge is an integer level that moves both ways (Add, Store, Load).
type Gauge struct{ atomic.Int64 }

// Gauge declares a gauge family with a single unlabelled sample.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.declare(name, "gauge", help, func(s *scrape) { s.float("", float64(g.Load())) })
	return g
}

// GaugeFunc declares a gauge family whose samples are read at scrape
// time: fn calls emit once per sample with a pre-rendered label body
// ("" for an unlabelled gauge); samples render sorted by label body.
// For levels another structure already holds (a queue's length, a
// node state table).
func (r *Registry) GaugeFunc(name, help string, fn func(emit func(labels string, v float64))) {
	r.declare(name, "gauge", help, func(s *scrape) {
		samples := make(map[string]float64)
		fn(func(labels string, v float64) { samples[labels] = v })
		s.floats(samples)
	})
}

// CounterVec is a counter family split by the values of one label.
type CounterVec struct {
	mu sync.Mutex
	by map[string]*Counter
}

// CounterVec declares a counter family with one sample per value of
// label seen so far, sorted by value.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{by: make(map[string]*Counter)}
	r.declare(name, "counter", help, func(s *scrape) {
		vals := v.Values()
		for _, k := range sortedKeys(vals) {
			s.uint("", fmt.Sprintf("%s=%q", label, k), vals[k])
		}
	})
	return v
}

// With returns the counter for one label value, creating it at zero.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.by[value]
	if c == nil {
		c = new(Counter)
		v.by[value] = c
	}
	return c
}

// Values returns the current count per label value.
func (v *CounterVec) Values() map[string]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.by))
	for k, c := range v.by {
		out[k] = c.Load()
	}
	return out
}

// Latency declares a latency distribution summarised as four gauge
// families, <prefix>_p50_seconds, _p95_, _p99_ and _max_seconds. what
// names the measured span in their help ("request latency"); note, if
// not empty, is appended to the median's help to define the span.
func (r *Registry) Latency(prefix, what, note string) *Latency {
	l := new(Latency)
	gauge := func(suffix, help string, v func(*LatencySnapshot) float64) {
		r.declare(prefix+suffix, "gauge", help, func(s *scrape) { s.float("", v(s.latency(l))) })
	}
	gauge("_p50_seconds", "median "+what+note, func(s *LatencySnapshot) float64 { return s.Percentile(0.50) })
	gauge("_p95_seconds", "95th percentile "+what, func(s *LatencySnapshot) float64 { return s.Percentile(0.95) })
	gauge("_p99_seconds", "99th percentile "+what, func(s *LatencySnapshot) float64 { return s.Percentile(0.99) })
	gauge("_max_seconds", "maximum "+what, func(s *LatencySnapshot) float64 { return s.Max.Seconds() })
	return l
}

// Histogram additionally exports a declared Latency as a native
// Prometheus histogram family: only non-empty buckets are listed (plus
// +Inf), cumulative as the format requires.
func (r *Registry) Histogram(name, help string, l *Latency) {
	r.declare(name, "histogram", help, func(s *scrape) {
		snap := s.latency(l)
		var cum uint64
		for b, n := range snap.counts {
			if n == 0 {
				continue
			}
			cum += n
			le := strconv.FormatFloat(bucketUpper(b)/1e9, 'g', 6, 64)
			s.uint("_bucket", fmt.Sprintf("le=%q", le), cum)
		}
		s.uint("_bucket", `le="+Inf"`, snap.Count)
		s.sample("_sum", "", strconv.FormatFloat(snap.Sum.Seconds(), 'g', -1, 64))
		s.uint("_count", "", snap.Count)
	})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scrape is one WriteProm pass: the writer, the family being rendered,
// and the latency snapshots already taken, so the gauge families and
// the histogram of one Latency share a single sorted copy.
type scrape struct {
	w       io.Writer
	name    string
	latched map[*Latency]*LatencySnapshot
}

func (s *scrape) latency(l *Latency) *LatencySnapshot {
	snap := s.latched[l]
	if snap == nil {
		snap = l.Snapshot()
		s.latched[l] = snap
	}
	return snap
}

func (s *scrape) sample(suffix, labels, value string) {
	if labels == "" {
		fmt.Fprintf(s.w, "%s%s %s\n", s.name, suffix, value)
	} else {
		fmt.Fprintf(s.w, "%s%s{%s} %s\n", s.name, suffix, labels, value)
	}
}

// uint renders a count as a plain integer (a float's shortest form
// would turn 1000000 into 1e+06).
func (s *scrape) uint(suffix, labels string, v uint64) {
	s.sample(suffix, labels, strconv.FormatUint(v, 10))
}

func (s *scrape) float(labels string, v float64) {
	s.sample("", labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// floats renders samples keyed by label body, sorted.
func (s *scrape) floats(samples map[string]float64) {
	for _, k := range sortedKeys(samples) {
		s.float(k, samples[k])
	}
}

// WriteProm renders the registry in Prometheus text exposition
// format, families and samples sorted for reproducible scrapes.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	// Copy what Declare/Set/Add mutate, then render unlocked: the
	// collectors call back into the declaring layer.
	r.mu.Lock()
	names := sortedKeys(r.families)
	fams := make([]family, len(names))
	for i, n := range names {
		fams[i] = *r.families[n]
		fams[i].samples = maps.Clone(fams[i].samples)
	}
	r.mu.Unlock()
	s := &scrape{w: w, latched: make(map[*Latency]*LatencySnapshot)}
	for i, f := range fams {
		s.name = names[i]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", s.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", s.name, f.typ)
		}
		if f.collect != nil {
			f.collect(s)
		}
		s.floats(f.samples)
	}
}
