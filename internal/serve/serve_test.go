package serve

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Pool = 2
	cfg.Batch = 8
	cfg.QueueDepth = 256
	cfg.KV.Records = 128
	return cfg
}

// TestServeCorrectness: every concurrent request against a fault-free
// pool gets the exact reference reply, and the accounting balances.
func TestServeCorrectness(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 200
	var wg sync.WaitGroup
	var bad atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{
				Write: i%3 == 0,
				Key:   uint64(i % s.Records()),
				Value: uint64(i * 17),
			}
			v, err := s.Do(req)
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			word := workloads.KVRequestWord(req.Write, req.Key, req.Value)
			if v != workloads.KVReference(word, s.ValueWork()) {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d replies differ from reference", bad.Load())
	}

	m := s.Metrics()
	if m.Requests != n || m.Responses != n {
		t.Fatalf("accounting: %d requests / %d responses, want %d/%d", m.Requests, m.Responses, n, n)
	}
	if m.Failed != 0 || m.CorruptedReplies != 0 || m.FaultedRuns != 0 {
		t.Fatalf("clean run reported failures: %+v", m)
	}
	if m.Runs == 0 || m.TxStarted == 0 || m.TxCommitted == 0 {
		t.Fatalf("HAFT pool ran no transactions: %+v", m)
	}
	if m.LatencyP50 <= 0 || m.LatencyP99 < m.LatencyP50 {
		t.Fatalf("bad latency percentiles: p50=%v p99=%v", m.LatencyP50, m.LatencyP99)
	}
	if m.ThroughputRPS <= 0 {
		t.Fatalf("no throughput reported")
	}
}

// TestServeScan: scan fans out to the Get path and preserves order.
func TestServeScan(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	vs, err := s.Scan(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 9 {
		t.Fatalf("scan returned %d values, want 9", len(vs))
	}
	for i, v := range vs {
		k := (5 + uint64(i)) % uint64(s.Records())
		word := workloads.KVRequestWord(false, k, 0)
		if v != workloads.KVReference(word, s.ValueWork()) {
			t.Fatalf("scan[%d] = %#x, want reference for key %d", i, v, k)
		}
	}
}

// TestServeSEUCampaign: under a heavy injection campaign the serving
// layer keeps every *delivered* reply correct by retrying faulted runs
// on other instances, and the metrics show the campaign actually
// exercised the fault path.
func TestServeSEUCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.SEURate = 0.2 // ~1.6 expected SEUs per full batch: every run armed
	cfg.Seed = 7
	cfg.QuarantineAfter = 2
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 400
	var wg sync.WaitGroup
	var bad, failed atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Write: i%4 == 0, Key: uint64(i % s.Records()), Value: uint64(i)}
			v, err := s.Do(req)
			if err != nil {
				failed.Add(1) // retries exhausted: failed loudly, not silently
				return
			}
			word := workloads.KVRequestWord(req.Write, req.Key, req.Value)
			if v != workloads.KVReference(word, s.ValueWork()) {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	t.Logf("campaign: %d injected, %d faulted runs, %d retries, %d quarantines, %d failed, %d corrupted",
		m.InjectedFaults, m.FaultedRuns, m.Retries, m.Quarantines, failed.Load(), m.CorruptedReplies)
	if bad.Load() != 0 {
		t.Fatalf("%d delivered replies were wrong", bad.Load())
	}
	if m.InjectedFaults == 0 {
		t.Fatalf("campaign armed no faults")
	}
	if m.Responses+m.Failed != n {
		t.Fatalf("accounting: responses %d + failed %d != %d", m.Responses, m.Failed, n)
	}
	if m.Failed != failed.Load() {
		t.Fatalf("failed metric %d != observed %d", m.Failed, failed.Load())
	}
	if m.FaultedRuns > 0 && m.Retries == 0 {
		t.Fatalf("faulted runs with no retries: %+v", m)
	}
}

// TestServeQuarantine: an instance whose runs fault repeatedly is
// rebuilt, and the rebuilt pool still serves correct replies.
func TestServeQuarantine(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 4
	cfg.SEURate = 2 // always armed
	cfg.QuarantineAfter = 1
	cfg.MaxRetries = 6
	cfg.Seed = 11
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Get(uint64(i % s.Records()))
			if err != nil {
				return
			}
			word := workloads.KVRequestWord(false, uint64(i%s.Records()), 0)
			if v != workloads.KVReference(word, s.ValueWork()) {
				t.Errorf("wrong reply for key %d", i%s.Records())
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if m.FaultedRuns > 0 && m.Quarantines == 0 {
		t.Fatalf("faults with QuarantineAfter=1 but no quarantines: %+v", m)
	}
	t.Logf("quarantines=%d faultedRuns=%d", m.Quarantines, m.FaultedRuns)
}

// TestServeClose: requests after Close fail with ErrClosed.
func TestServeClose(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1); err != nil {
		t.Fatalf("pre-close get: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close get: %v, want ErrClosed", err)
	}
}

// TestServeTCP: full wire round-trip over loopback, including stats.
func TestServeTCP(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(time.Time{}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	pv, err := c.Put(3, 99)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if want := workloads.KVReference(workloads.KVRequestWord(true, 3, 99), s.ValueWork()); pv != want {
		t.Fatalf("put reply %#x, want %#x", pv, want)
	}
	gv, err := c.Get(3)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if want := workloads.KVReference(workloads.KVRequestWord(false, 3, 0), s.ValueWork()); gv != want {
		t.Fatalf("get reply %#x, want %#x", gv, want)
	}
	vs, err := c.Scan(10, 4)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(vs) != 4 {
		t.Fatalf("scan returned %d values, want 4", len(vs))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Responses < 6 || st.PoolSize != 2 {
		t.Fatalf("stats snapshot looks wrong: %+v", st)
	}

	// Protocol errors keep the connection usable.
	if _, err := c.roundTrip("get", "VALUE", time.Time{}); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("malformed get: %v", err)
	}
	if err := c.Ping(time.Time{}); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

// TestSnapshotJSONAndSummary: the export formats carry the metrics.
func TestSnapshotJSONAndSummary(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if _, err := s.Get(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics()
	var back Snapshot
	if err := json.Unmarshal(snap.JSON(), &back); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if back.Responses != snap.Responses || back.TxCommitted != snap.TxCommitted {
		t.Fatalf("json round-trip lost data: %+v vs %+v", back, snap)
	}
	sum := snap.Summary()
	for _, want := range []string{"throughput", "latency p50/p95/p99", "corrupted replies", "pool occupancy"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestServeShutdownDrain: Shutdown rejects new submissions but every
// already-admitted request completes with a correct reply — nothing
// in flight is dropped.
func TestServeShutdownDrain(t *testing.T) {
	cfg := testConfig()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 120
	var wg sync.WaitGroup
	var ok, bad atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Get(uint64(i % s.Records()))
			if err != nil {
				t.Errorf("admitted request %d dropped during drain: %v", i, err)
				return
			}
			word := workloads.KVRequestWord(false, uint64(i%s.Records()), 0)
			if v != workloads.KVReference(word, s.ValueWork()) {
				bad.Add(1)
				return
			}
			ok.Add(1)
		}(i)
	}
	// Let the submitters get admitted, then drain underneath them.
	for s.Metrics().Requests < n {
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if bad.Load() != 0 {
		t.Fatalf("%d drained replies were wrong", bad.Load())
	}
	if ok.Load() != n {
		t.Fatalf("only %d/%d admitted requests completed", ok.Load(), n)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain get: %v, want ErrClosed", err)
	}
	if got := s.outstanding.Load(); got != 0 {
		t.Fatalf("outstanding after drain = %d, want 0", got)
	}
}

// TestServeShutdownListener: a drain closes registered listeners so no
// new connections are admitted, and ServeListener reports ErrClosed
// (a clean end) rather than a raw accept error.
func TestServeShutdownListener(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(l) }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get(1); err != nil {
		t.Fatalf("pre-drain get: %v", err)
	}

	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, ErrClosed) {
		t.Fatalf("ServeListener returned %v, want ErrClosed", err)
	}
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Fatalf("dial succeeded after drain closed the listener")
	}
}

// TestServeQuarantineGauge: the quarantined-instances gauge rises when
// a faulting instance enters the rebuild cycle and returns to zero
// once clean batches re-prove the pool.
func TestServeQuarantineGauge(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 4
	cfg.SEURate = 2 // always armed: every batch faults
	cfg.QuarantineAfter = 1
	cfg.MaxRetries = 6
	cfg.Seed = 3
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Get(uint64(i % s.Records())) //nolint:errcheck — faults expected
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if m.Quarantines == 0 {
		t.Fatalf("always-armed campaign produced no quarantines: %+v", m)
	}
	// The injection campaign is still armed, so the single instance may
	// legitimately still be quarantined; the gauge must be consistent
	// with the pool size either way.
	if m.QuarantinedInstances < 0 || m.QuarantinedInstances > cfg.Pool {
		t.Fatalf("quarantined gauge %d out of range [0,%d]", m.QuarantinedInstances, cfg.Pool)
	}

	// The Prometheus exposition and health detail carry the gauge.
	var sb strings.Builder
	s.WriteProm(&sb)
	if !strings.Contains(sb.String(), "haft_serve_quarantined_instances") {
		t.Fatalf("prometheus exposition missing quarantined_instances gauge")
	}
	h := s.Health()
	if _, ok := h.Detail["quarantined_instances"]; !ok {
		t.Fatalf("health detail missing quarantined_instances: %+v", h.Detail)
	}

	// Quarantine state transitions must land in the obs ring.
	enter := false
	for _, ev := range s.Ring().Snapshot() {
		if ev.Kind == obs.KindQuarantine && ev.Label == "enter" {
			enter = true
		}
	}
	if !enter {
		t.Fatalf("no quarantine enter event in the obs ring")
	}
}
