package serve

import (
	"errors"
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

// TestDoAllocs: a point request on a warm, quiet server allocates at
// most the one word of the machine's output.
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
		if n > 1 {
			t.Errorf("Server.Do (%s) allocates %v objects per request, want at most 1", tc.name, n)
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
