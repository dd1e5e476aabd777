// Contract goldens for what outside programs read from the serving
// substrate: the metrics registry of a node (serve) and of the router
// (cluster). The /metrics exposition renders it as text and the
// "stats" reply carries it as a View, one JSON number per sample under
// the same names, so one schema golden per layer pins both. The
// goldens pin the vocabulary — family names, types, help, label keys —
// not the values, and compare families as a sorted set so exposition
// order is free. Lives in the external test package because serve and
// cluster import obs. Regenerate consciously with
//
//	HAFT_UPDATE_GOLDEN=1 go test ./internal/obs -run TestContract
package obs_test

import (
	"fmt"
	"maps"
	"math"
	"net"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// checkGolden compares got (already sorted lines) with testdata/<name>.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := "testdata/" + name
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("HAFT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (%v); generate with HAFT_UPDATE_GOLDEN=1", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

var (
	sampleRE  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelRE   = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	integerRE = regexp.MustCompile(`^[0-9]+$`)
)

// promSchema reduces an exposition to one sorted line per family —
// name, type, help, label keys — with every sample value stripped. On
// the way it checks what the format promises: every sample belongs to
// a declared family and counters (and histogram bucket/count samples)
// print as plain integers.
func promSchema(t *testing.T, text string) []string {
	t.Helper()
	type fam struct {
		typ, help string
		keys      map[string]bool
	}
	fams := map[string]*fam{}
	get := func(name string) *fam {
		if fams[name] == nil {
			fams[name] = &fam{keys: map[string]bool{}}
		}
		return fams[name]
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			get(name).typ = typ
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name, integer := m[1], false
		f := fams[name]
		if f == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil && fams[base].typ == "histogram" {
					f, integer = fams[base], suffix != "_sum"
				}
			}
		}
		if f == nil {
			t.Fatalf("sample %q has no declared family", line)
		}
		if (f.typ == "counter" || integer) && !integerRE.MatchString(m[3]) {
			t.Errorf("%s: counter sample printed as %q, want a plain integer", name, m[3])
		}
		for _, k := range labelRE.FindAllStringSubmatch(m[2], -1) {
			f.keys[k[1]] = true
		}
	}
	var out []string
	for name, f := range fams {
		keys := make([]string, 0, len(f.keys))
		for k := range f.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("%s %s {%s} %s", name, f.typ, strings.Join(keys, ","), f.help))
	}
	sort.Strings(out)
	return out
}

// checkLatencyHistogram asserts the native histogram's invariants and
// that every listed bound is one of the quarter-octave nanosecond
// bucket bounds (2^k * {1.25, 1.5, 1.75, 2}) rendered in seconds.
func checkLatencyHistogram(t *testing.T, text, family string) {
	t.Helper()
	valid := map[string]bool{"+Inf": true}
	for oct := 0; oct < 64; oct++ {
		for frac := 1; frac <= 4; frac++ {
			ns := math.Ldexp(1+float64(frac)/4, oct)
			valid[strconv.FormatFloat(ns/1e9, 'g', 6, 64)] = true
		}
	}
	var last, inf, count uint64
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		switch m[1] {
		case family + "_bucket":
			le := strings.TrimSuffix(strings.TrimPrefix(m[2], `le="`), `"`)
			if !valid[le] {
				t.Errorf("bucket bound le=%q is not a quarter-octave bound", le)
			}
			n, _ := strconv.ParseUint(m[3], 10, 64)
			if n < last {
				t.Errorf("bucket le=%q not cumulative: %d after %d", le, n, last)
			}
			last = n
			if le == "+Inf" {
				inf = n
			}
			buckets++
		case family + "_count":
			count, _ = strconv.ParseUint(m[3], 10, 64)
		}
	}
	if buckets < 2 || count == 0 || inf != count {
		t.Errorf("%s: %d buckets, +Inf=%d, count=%d", family, buckets, inf, count)
	}
}

// hasSample reports whether v holds a sample of the named labelled
// family.
func hasSample(v obs.View, family string) bool {
	for k := range v {
		if strings.HasPrefix(k, family+"{") {
			return true
		}
	}
	return false
}

// TestContractServe drives a node until every labelled family has a
// sample (chaos and SEUs on), then pins its exposition schema.
func TestContractServe(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Pool = 2
	cfg.Batch = 8
	cfg.KV.Records = 128
	cfg.MaxRetries = 16
	cfg.SEURate = 0.05
	cfg.Chaos = serve.ChaosConfig{KillRate: 0.05, HangRate: 0.05, StormRate: 0.05}
	s, c := serveNode(t, cfg)

	for i := 0; ; i++ {
		c.Put(uint64(i%128), uint64(i)) //nolint:errcheck // failures are metrics too
		c.Get(uint64(i % 128))          //nolint:errcheck
		v := s.Stats()
		if hasSample(v, "haft_serve_run_status_total") && hasSample(v, "haft_serve_chaos_events_total") &&
			hasSample(v, "haft_serve_tx_aborts_total") && v["haft_serve_responses_total"] > 0 {
			break
		}
		if i > 5000 {
			t.Fatalf("labelled families never all populated: %v", v)
		}
	}

	var sb strings.Builder
	s.WriteProm(&sb)
	checkGolden(t, "serve_metrics_schema.golden", promSchema(t, sb.String()))
	checkLatencyHistogram(t, sb.String(), "haft_serve_latency_seconds")
}

// serveNode starts a node on a loopback listener and dials it; both
// close when the test ends.
func serveNode(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Conn) {
	t.Helper()
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)
	c, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

// fakeNode is a cluster.Backend answering from a pure function, with
// one scripted transport failure and one scripted corrupted read so
// the per-node failure and masked-reply families get a sample.
type fakeNode struct {
	id            string
	fail, corrupt atomic.Bool
}

func (f *fakeNode) ID() string           { return f.id }
func (f *fakeNode) Ping(time.Time) error { return nil }
func (f *fakeNode) Close()               {}
func (f *fakeNode) Do(req serve.Request) (uint64, error) {
	if f.fail.CompareAndSwap(true, false) {
		return 0, fmt.Errorf("scripted failure")
	}
	v := req.Key*3 + 1
	if !req.Write && f.corrupt.CompareAndSwap(true, false) {
		v ^= 0x40
	}
	return v, nil
}

// scriptedRouter serves a router over three fake nodes, one failing
// once and one corrupting one read, drives 8 puts and 8 gets through
// it, and returns it with a connection to it.
func scriptedRouter(t *testing.T) (*cluster.Cluster, *serve.Conn) {
	t.Helper()
	nodes := []*fakeNode{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	nodes[1].fail.Store(true)
	nodes[2].corrupt.Store(true)
	cfg := cluster.DefaultConfig()
	cfg.HealthInterval = time.Hour // no background probes: counts stay scripted
	c, err := cluster.New([]cluster.Backend{nodes[0], nodes[1], nodes[2]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeListener(l)
	conn, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for i := uint64(0); i < 8; i++ {
		if _, err := conn.Put(i, i); err != nil {
			t.Fatal(err)
		}
		if v, err := conn.Get(i); err != nil || v != i*3+1 {
			t.Fatalf("get %d = %#x, %v", i, v, err)
		}
	}
	return c, conn
}

// TestContractCluster pins the router's exposition schema, with the
// scripted failure and corruption counted per node.
func TestContractCluster(t *testing.T) {
	c, _ := scriptedRouter(t)
	v := c.Stats()
	if v[`haft_cluster_node_failures_total{node="n1"}`] != 1 ||
		v[`haft_cluster_node_masked_replies_total{node="n2"}`] != 1 ||
		v["haft_cluster_detected_corruptions_total"] != 1 {
		t.Fatalf("scripted failure/corruption not accounted: %v", v)
	}

	var sb strings.Builder
	c.WriteProm(&sb)
	checkGolden(t, "cluster_metrics_schema.golden", promSchema(t, sb.String()))
}

// TestContractStatsIsView: the "stats" reply of a quiesced node and of
// a quiesced router, read over loopback with Conn.Stats, is the
// registry's view, and every key in it is a sample of a family in that
// layer's schema golden, with that family's label keys; every
// unlabelled counter and gauge family has its sample.
func TestContractStatsIsView(t *testing.T) {
	t.Run("node", func(t *testing.T) {
		cfg := serve.DefaultConfig()
		cfg.Pool = 2
		cfg.Batch = 8
		cfg.KV.Records = 128
		s, c := serveNode(t, cfg)
		for i := uint64(0); i < 16; i++ {
			if _, err := c.Put(i, i); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get(i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Scan(0, 20); err != nil {
			t.Fatal(err)
		}
		checkStatsIsView(t, c, s.Stats, "serve_metrics_schema.golden")
	})
	t.Run("router", func(t *testing.T) {
		rc, conn := scriptedRouter(t)
		checkStatsIsView(t, conn, rc.Stats, "cluster_metrics_schema.golden")
	})
}

// checkStatsIsView fetches the stats reply between two reads of the
// registry's view, until the two reads agree (the endpoint has
// quiesced: a worker may still return its instance after the last
// reply), then holds the reply to them and to the schema golden.
func checkStatsIsView(t *testing.T, c *serve.Conn, view func() obs.View, golden string) {
	t.Helper()
	var got, want obs.View
	for i := 0; ; i++ {
		before := view()
		var err error
		if got, err = c.Stats(); err != nil {
			t.Fatal(err)
		}
		if want = view(); maps.Equal(before, want) {
			break
		}
		if i == 100 {
			t.Fatalf("endpoint never quiesced:\n%v\n%v", before, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !maps.Equal(got, want) {
		t.Errorf("stats reply is not the registry view:\n got %v\nwant %v", got, want)
	}

	text, err := os.ReadFile("testdata/" + golden)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{} // family -> "{key,key}" as the golden lists them
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		f := strings.Fields(line)
		if f[1] == "counter" || f[1] == "gauge" {
			labels[f[0]] = f[2]
		}
	}
	for key := range got {
		name, body, _ := strings.Cut(strings.TrimSuffix(key, "}"), "{")
		var keys []string
		for _, k := range labelRE.FindAllStringSubmatch(body, -1) {
			keys = append(keys, k[1])
		}
		sort.Strings(keys)
		if want, ok := labels[name]; !ok || want != "{"+strings.Join(keys, ",")+"}" {
			t.Errorf("stats key %s is not a sample of a counter or gauge family in %s", key, golden)
		}
	}
	for name, l := range labels {
		if _, ok := got[name]; l == "{}" && !ok {
			t.Errorf("stats reply has no sample of %s", name)
		}
	}
}
