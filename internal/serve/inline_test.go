package serve

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workloads"
)

// waitIdle waits until every instance of s is in the idle set, so the
// next Do runs inline.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	for start := time.Now(); len(s.idle) < s.cfg.Pool; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d of %d instances idle after 10 s", len(s.idle), s.cfg.Pool)
		}
	}
}

// TestDoAllocs: a point request on a warm, quiet server allocates
// nothing.
func TestDoAllocs(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitIdle(t, s)
	for i := uint64(0); i < 64; i++ { // warm every instance and histogram
		if _, err := s.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"get", Request{Key: 5}},
		{"put", Request{Write: true, Key: 6, Value: 7}},
	} {
		var err error
		n := testing.AllocsPerRun(200, func() {
			if _, e := s.Do(tc.req); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("Server.Do (%s) allocates %v objects per request, want 0", tc.name, n)
		}
	}
}

// TestCloseWaitsForInlineRun: Close returns only once the run a caller's
// goroutine has under way put its instance back, that caller gets its
// reply, and nothing runs after Close.
func TestCloseWaitsForInlineRun(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.KV.ValueWork = 40_000 // a run of several milliseconds
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	var v uint64
	var doErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, doErr = s.Get(3)
	}()
	for s.metrics.poolBusy.Load() == 0 {
		select {
		case <-done:
			t.Fatal("the request finished before its run was seen under way")
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	s.Close()
	if busy := s.metrics.poolBusy.Load(); busy != 0 {
		t.Fatalf("Close returned with %d runs under way", busy)
	}
	runs := s.Metrics().Runs
	if runs != 1 {
		t.Fatalf("%d runs before Close returned, want the inline one", runs)
	}
	<-done
	if want := workloads.KVReference(workloads.KVRequestWord(false, 3, 0), cfg.KV.ValueWork); doErr != nil || v != want {
		t.Fatalf("the inline request got %#x, %v; want %#x", v, doErr, want)
	}
	if _, err := s.Get(4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	if got := s.Metrics().Runs; got != runs {
		t.Fatalf("%d runs after Close", got-runs)
	}
}

// TestScanAmongInlineRequests: a scan admitted while point requests keep
// running inline on every instance completes within a bound, and answers
// in key order.
func TestScanAmongInlineRequests(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitIdle(t, s)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				if _, err := s.Get((i + uint64(g)) % uint64(s.Records())); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	time.Sleep(20 * time.Millisecond) // the point requests are under way
	const bound = 2 * time.Second
	for round := 0; round < 5; round++ {
		n := 3*cfg.Batch + 1
		start := time.Now()
		vs, err := s.Scan(uint64(round), n)
		if took := time.Since(start); took > bound {
			t.Fatalf("scan %d of %d keys took %v among inline requests, bound %v", round, n, took, bound)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkScan(t, s, uint64(round), n, vs)
	}
}

// TestScanAllocs: a scan of Batch keys on a warm, quiet server runs
// inline and allocates only the slice it returns, on the server and on
// each end of the wire.
func TestScanAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Batch = 32
	s, err := NewServer(cfg)
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
	waitIdle(t, s)
	for i := uint64(0); i < 64; i++ { // warm every instance, its spare items and the histograms
		if _, err := s.Scan(i, cfg.Batch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Scan(i, cfg.Batch); err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Metrics().Runs
	for _, tc := range []struct {
		name string
		scan func(key uint64, n int) ([]uint64, error)
		max  float64
	}{
		{"Server.Scan", s.Scan, 1},
		{"Conn.Scan", c.Scan, 2},
	} {
		var err error
		var key uint64
		n := testing.AllocsPerRun(100, func() {
			key++
			vs, e := tc.scan(key, cfg.Batch)
			if e != nil {
				err = e
			} else {
				checkScan(t, s, key, cfg.Batch, vs)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > tc.max {
			t.Errorf("%s of %d keys allocates %v objects, want at most %v", tc.name, cfg.Batch, n, tc.max)
		}
	}
	// AllocsPerRun makes one run more than it measures.
	if got, want := s.Metrics().Runs-runs, uint64(2*101); got != want {
		t.Errorf("%d scans of %d keys took %d runs, want one each", want, cfg.Batch, got)
	}
}

// TestScanOnBusyPool: a scan that finds no instance idle is queued: a
// scan of at most Batch keys as one entry, a longer one as whole chunks
// of Batch keys, each costing one run; either answers in key order.
func TestScanOnBusyPool(t *testing.T) {
	cfg := testConfig()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitIdle(t, s)
	for _, n := range []int{cfg.Batch, 2*cfg.Batch + 3} {
		var held []*instance
		for len(held) < cfg.Pool {
			held = append(held, <-s.idle)
		}
		before := s.Metrics()
		var vs []uint64
		var scanErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			vs, scanErr = s.Scan(5, n)
		}()
		for start := time.Now(); s.metrics.requests.Load() < before.Requests+uint64(n); time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("scan of %d keys not admitted after 10 s", n)
			}
		}
		if got := s.Metrics().Runs; got != before.Runs {
			t.Fatalf("scan of %d keys ran %d batches with no instance idle", n, got-before.Runs)
		}
		for _, inst := range held {
			s.idle <- inst
		}
		<-done
		if scanErr != nil {
			t.Fatal(scanErr)
		}
		checkScan(t, s, 5, n, vs)
		if got, want := s.Metrics().Runs-before.Runs, uint64((n+cfg.Batch-1)/cfg.Batch); got != want {
			t.Errorf("queued scan of %d keys took %d runs, want %d", n, got, want)
		}
	}
}

// TestCloseAnswersQueuedRun: a queued request whose batch is under way
// when Close is called gets that batch's reply, as an inline one does.
func TestCloseAnswersQueuedRun(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.KV.ValueWork = 40_000 // a run of several milliseconds
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	tk, err := s.Submit(Request{Key: 3})
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	var waitErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, waitErr = tk.Wait(nil)
	}()
	for s.metrics.poolBusy.Load() == 0 {
		select {
		case <-done:
			t.Fatal("the request finished before its run was seen under way")
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	s.Close()
	<-done
	if want := workloads.KVReference(workloads.KVRequestWord(false, 3, 0), cfg.KV.ValueWork); waitErr != nil || v != want {
		t.Fatalf("the queued request got %#x, %v; want %#x", v, waitErr, want)
	}
}
