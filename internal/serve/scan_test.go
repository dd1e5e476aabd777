package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// checkScan compares a scan's replies with the reference, key by key in
// key order (t.Errorf: scanner goroutines call it too).
func checkScan(t *testing.T, s *Server, key uint64, n int, vs []uint64) {
	t.Helper()
	if len(vs) != n {
		t.Errorf("scan(%d, %d) returned %d values", key, n, len(vs))
		return
	}
	for i, v := range vs {
		k := (key + uint64(i)) % uint64(s.Records())
		if v != workloads.KVReference(workloads.KVRequestWord(false, k, 0), s.ValueWork()) {
			t.Errorf("scan(%d, %d)[%d] = %#x, not the reference reply for key %d", key, n, i, v, k)
			return
		}
	}
}

// TestScanIsOneRunPerChunk: on an idle server a scan of n keys costs
// ceil(n/Batch) machine runs, n requests and n responses, and answers
// in key order.
func TestScanIsOneRunPerChunk(t *testing.T) {
	cfg := testConfig()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	records := uint64(s.Records())
	for _, tc := range []struct {
		key uint64
		n   int
	}{
		{5, 1}, {5, cfg.Batch}, {5, cfg.Batch + 1}, {7, 3 * cfg.Batch}, {7, 2*cfg.Batch + 3},
		{records - 3, cfg.Batch}, {records - 1, 2 * cfg.Batch},
	} {
		before := s.Metrics()
		vs, err := s.Scan(tc.key, tc.n)
		if err != nil {
			t.Fatalf("scan(%d, %d): %v", tc.key, tc.n, err)
		}
		checkScan(t, s, tc.key, tc.n, vs)
		after := s.Metrics()
		wantRuns := uint64((tc.n + cfg.Batch - 1) / cfg.Batch)
		if got := after.Runs - before.Runs; got != wantRuns {
			t.Errorf("scan(%d, %d) took %d runs, want %d", tc.key, tc.n, got, wantRuns)
		}
		if req, resp := after.Requests-before.Requests, after.Responses-before.Responses; req != uint64(tc.n) || resp != uint64(tc.n) {
			t.Errorf("scan(%d, %d) counted %d requests / %d responses, want %d of each", tc.key, tc.n, req, resp, tc.n)
		}
	}
	if m := s.Metrics(); m.Retries != 0 || m.Rejected != 0 || m.Failed != 0 {
		t.Fatalf("fault-free scans retried, rejected or failed: %+v", m)
	}
	if vs, err := s.Scan(1, 0); vs != nil || err != nil {
		t.Fatalf("scan of no keys = %v, %v", vs, err)
	}
}

// TestScanUnderSEU: an unhardened pool under an SEU campaign produces
// wrong replies that only the verifier catches. Every scan is still
// answered correctly, and a rejected key is retried alone — the rest of
// its chunk was delivered from the same run and does not run again.
func TestScanUnderSEU(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 23
	cfg.SEURate = 0.15
	cfg.MaxRetries = 8
	cfg.TraceDepth = 1 << 16
	cfg.Harden = core.DefaultConfig()
	cfg.Harden.Mode = core.ModeNative
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := 0
	for i := 0; i < 60; i++ {
		key, n := uint64(i*11), 1+(i*5)%(3*cfg.Batch)
		vs, err := s.Scan(key, n)
		if err != nil {
			t.Fatalf("scan(%d, %d): %v", key, n, err)
		}
		checkScan(t, s, key, n, vs)
		keys += n
	}
	m := s.Metrics()
	t.Logf("%d keys: %d runs (%d faulted), %d injected, %d verify rejects, %d retries",
		keys, m.Runs, m.FaultedRuns, m.InjectedFaults, m.VerifyRejects, m.Retries)
	if m.Requests != uint64(keys) || m.Responses != uint64(keys) || m.Failed != 0 || m.CorruptedReplies != 0 {
		t.Fatalf("accounting for %d keys: %+v", keys, m)
	}
	if m.VerifyRejects == 0 || m.Retries == 0 {
		t.Fatalf("the campaign caused no verify reject (%d) or no retry (%d)", m.VerifyRejects, m.Retries)
	}
	// A failed run retries its whole batch, a verify reject only the
	// rejected keys.
	if max := m.VerifyRejects + m.FaultedRuns*uint64(cfg.Batch); m.Retries > max {
		t.Fatalf("%d retries, but %d verify rejects and %d faulted runs explain at most %d", m.Retries, m.VerifyRejects, m.FaultedRuns, max)
	}
	execs := uint64(0)
	for _, ev := range s.Ring().Snapshot() {
		if ev.Kind == obs.KindExec {
			execs++
		}
	}
	if execs != m.Requests+m.Retries {
		t.Fatalf("%d key executions, want one per request and one per retry = %d", execs, m.Requests+m.Retries)
	}
}

// TestScanRacesShutdown: scans racing a drain are each answered, in
// full and correctly or with ErrClosed, and nothing stays outstanding —
// also not the entries a worker held back or a scan admitted before its
// next entry was refused.
func TestScanRacesShutdown(t *testing.T) {
	cfg := testConfig()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var full, refused atomic.Uint64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key, n := uint64(g*16+i), 1+(g+i*5)%(3*cfg.Batch)
				vs, err := s.Scan(key, n)
				if errors.Is(err, ErrClosed) {
					refused.Add(1)
					return
				}
				if err != nil {
					t.Errorf("scan(%d, %d): %v", key, n, err)
					return
				}
				checkScan(t, s, key, n, vs)
				full.Add(1)
			}
		}(g)
	}
	for s.Metrics().Runs < 50 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if full.Load() == 0 || refused.Load() != 8 {
		t.Fatalf("%d scans answered in full, %d of 8 scanners refused", full.Load(), refused.Load())
	}
	if got := s.outstanding.Load(); got != 0 {
		t.Fatalf("outstanding after drain = %d, want 0", got)
	}
}

// TestScanDeadlineOnce: the submitter's watchdog fails a scan once, not
// once per key.
func TestScanDeadlineOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Deadline = time.Nanosecond // expired before the first run can end
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Scan(3, 5*cfg.Batch); !errors.Is(err, ErrDeadline) {
		t.Fatalf("scan: %v, want ErrDeadline", err)
	}
	// The abandoned keys still run to completion and are dropped.
	for s.outstanding.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.DeadlineFailures != 1 || m.Retries != 0 {
		t.Fatalf("one expired scan counted %d deadline failures and %d retries, want 1 and 0", m.DeadlineFailures, m.Retries)
	}
}

// bareServer is a Server with a queue and no workers, for driving
// admit, gather and Close by hand.
func bareServer(batch, pool int) *Server {
	s := &Server{
		cfg:    Config{Batch: batch, Pool: pool},
		queue:  make(chan []*item, 16),
		closed: make(chan struct{}),
		ring:   obs.NewRing(64),
	}
	s.metrics = newMetrics(pool, func() int { return len(s.queue) })
	return s
}

func entryOf(n int) []*item {
	e := make([]*item, n)
	for i := range e {
		e[i] = newItem(Request{Key: uint64(i)})
	}
	return e
}

// TestGatherKeepsEntriesWhole: a batch never splits an entry, never
// exceeds Batch, takes point requests into the room a chunk leaves, and
// an entry that does not fit is held — nothing behind it is taken — and
// opens the next batch.
func TestGatherKeepsEntriesWhole(t *testing.T) {
	s := bareServer(8, 2)
	c1, c2, c3 := entryOf(5), entryOf(5), entryOf(8)
	var points [][]*item
	for i := 0; i < 5; i++ {
		points = append(points, entryOf(1))
	}
	same := func(a, b []*item) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	for _, e := range append([][]*item{c2, points[0], points[1], points[2], points[3], c3}, points[4]) {
		s.queue <- e
	}

	batch, held := s.gather(nil, c1, 0)
	if len(batch) != 5 || batch[4] != c1[4] || !same(held, c2) || len(s.queue) != 6 {
		t.Fatalf("first batch: %d items, held %d, %d entries left; want c1 alone, c2 held, 6 left", len(batch), len(held), len(s.queue))
	}
	batch, held = s.gather(nil, held, 0)
	if len(batch) != 8 || batch[0] != c2[0] || batch[4] != c2[4] || batch[5] != points[0][0] || batch[7] != points[2][0] || held != nil {
		t.Fatalf("second batch: %d items, held %d; want c2 then three point requests", len(batch), len(held))
	}
	batch, held = s.gather(nil, <-s.queue, 0)
	if len(batch) != 1 || batch[0] != points[3][0] || !same(held, c3) || len(s.queue) != 1 {
		t.Fatalf("third batch: %d items, held %d; want one point request, the full chunk held, the last point request not overtaking it", len(batch), len(held))
	}
	batch, held = s.gather(nil, held, 0)
	if len(batch) != 8 || batch[0] != c3[0] || held != nil || len(s.queue) != 1 {
		t.Fatalf("fourth batch: %d items; want the full chunk alone, the queue untouched", len(batch))
	}

	// A retried item gives way once on the instance it faulted on: it
	// goes to the back of the queue, where any worker may take it — here
	// this one again, after what was queued before it.
	retried := entryOf(1)
	retried[0].exclude = 1
	batch, held = s.gather(nil, retried, 1)
	if len(batch) != 2 || batch[0] != points[4][0] || batch[1] != retried[0] || held != nil || retried[0].exclude != -1 {
		t.Fatalf("excluded retry: batch of %d, exclude %d; want the queued point request, then the retry", len(batch), retried[0].exclude)
	}
}

// TestCloseFailsQueuedChunk: Close answers every item of a queued entry
// with ErrClosed, and admit admits an entry whole or not at all.
func TestCloseFailsQueuedChunk(t *testing.T) {
	s := bareServer(8, 1)
	chunk, point := entryOf(3), entryOf(1)
	if err := s.admit(chunk, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(point, &Deadline{}); err != nil {
		t.Fatal(err)
	}
	if len(s.queue) != 2 || s.outstanding.Load() != 4 || s.metrics.requests.Load() != 4 {
		t.Fatalf("4 items in 2 entries admitted: queue %d, outstanding %d, requests %d",
			len(s.queue), s.outstanding.Load(), s.metrics.requests.Load())
	}
	for len(s.queue) < cap(s.queue) {
		s.queue <- nil
	}
	if err := s.admit(entryOf(4), &Deadline{}); !errors.Is(err, ErrOverloaded) || s.outstanding.Load() != 4 {
		t.Fatalf("admit to a full queue: %v, outstanding %d; want ErrOverloaded and 4", err, s.outstanding.Load())
	}
	s.Close()
	for _, it := range append(chunk, point...) {
		select {
		case r := <-it.done:
			if !errors.Is(r.err, ErrClosed) {
				t.Fatalf("queued item answered %v, want ErrClosed", r.err)
			}
		default:
			t.Fatal("Close left a queued item unanswered")
		}
	}
	if s.outstanding.Load() != 0 {
		t.Fatalf("outstanding after Close = %d", s.outstanding.Load())
	}
	if err := s.admit(entryOf(2), nil); !errors.Is(err, ErrClosed) || s.outstanding.Load() != 0 {
		t.Fatalf("admit after Close: %v, outstanding %d", err, s.outstanding.Load())
	}
}
