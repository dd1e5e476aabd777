// Contract goldens for the two things outside programs read from the
// serving substrate: the /metrics exposition of a node (serve) and of
// the router (cluster), and the JSON snapshot the "stats" command
// carries. They pin the vocabulary — family names, types, help, label
// keys, JSON keys — not the values, and compare families as a sorted
// set so exposition order is free. Lives in the external test package
// because serve and cluster import obs. Regenerate consciously with
//
//	HAFT_UPDATE_GOLDEN=1 go test ./internal/obs -run TestContract
package obs_test

import (
	"encoding/json"
	"fmt"
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

func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("stats payload is not a JSON object: %v", err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestContractServe drives a node until every labelled family has a
// sample (chaos and SEUs on), then pins its exposition schema, its
// snapshot JSON keys, and the Conn.Stats round trip.
func TestContractServe(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Pool = 2
	cfg.Batch = 8
	cfg.KV.Records = 128
	cfg.MaxRetries = 16
	cfg.SEURate = 0.05
	cfg.Chaos = serve.ChaosConfig{KillRate: 0.05, HangRate: 0.05, StormRate: 0.05}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)
	c, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; ; i++ {
		c.Put(uint64(i%128), uint64(i)) //nolint:errcheck // failures are metrics too
		c.Get(uint64(i % 128))          //nolint:errcheck
		m := s.Metrics()
		if len(m.RunStatus) > 0 && len(m.ChaosEvents) > 0 && len(m.AbortCauses) > 0 && m.Responses > 0 {
			break
		}
		if i > 5000 {
			t.Fatalf("labelled families never all populated: %+v", m)
		}
	}

	var sb strings.Builder
	s.WriteProm(&sb)
	checkGolden(t, "serve_metrics_schema.golden", promSchema(t, sb.String()))
	checkLatencyHistogram(t, sb.String(), "haft_serve_latency_seconds")

	checkGolden(t, "serve_snapshot_keys.golden", jsonKeys(t, serve.Snapshot{}.JSON()))
	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "serve_snapshot_keys.golden", jsonKeys(t, raw))
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := s.Metrics()
	if got.Requests != want.Requests || got.Responses != want.Responses ||
		got.Retries != want.Retries || got.PoolSize != 2 || got.LatencyP50 <= 0 ||
		len(got.RunStatus) != len(want.RunStatus) {
		t.Errorf("Conn.Stats round trip lost fields:\n got %+v\nwant %+v", got, want)
	}
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

// TestContractCluster pins the router's exposition schema, snapshot
// JSON keys, and the stats payload served over the text protocol.
func TestContractCluster(t *testing.T) {
	nodes := []*fakeNode{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	nodes[1].fail.Store(true)
	nodes[2].corrupt.Store(true)
	cfg := cluster.DefaultConfig()
	cfg.HealthInterval = time.Hour // no background probes: counts stay scripted
	c, err := cluster.New([]cluster.Backend{nodes[0], nodes[1], nodes[2]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeListener(l)
	conn, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for i := uint64(0); i < 8; i++ {
		if _, err := conn.Put(i, i); err != nil {
			t.Fatal(err)
		}
		if v, err := conn.Get(i); err != nil || v != i*3+1 {
			t.Fatalf("get %d = %#x, %v", i, v, err)
		}
	}
	m := c.Metrics()
	if m.NodeFails["n1"] != 1 || m.NodeMasked["n2"] != 1 || m.DetectedCorruptions != 1 {
		t.Fatalf("scripted failure/corruption not accounted: %+v", m)
	}

	var sb strings.Builder
	c.WriteProm(&sb)
	checkGolden(t, "cluster_metrics_schema.golden", promSchema(t, sb.String()))

	checkGolden(t, "cluster_snapshot_keys.golden", jsonKeys(t, cluster.Snapshot{}.JSON()))
	raw, err := conn.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_snapshot_keys.golden", jsonKeys(t, raw))
	var got cluster.Snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Requests != 16 || got.Responses != 16 || got.Reads != 8 || got.Writes != 8 ||
		got.Nodes != 3 || got.Replicas != 3 || got.NodeStates["n0"] != "healthy" ||
		got.NodeMasked["n2"] != 1 || got.LatencyP50 <= 0 {
		t.Errorf("stats round trip lost fields: %+v", got)
	}
}
