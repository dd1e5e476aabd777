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

// TestServeChaosZeroCorrupted is the headline chaos experiment:
// instances are killed and hit by multi-upset SEU storms mid-traffic,
// yet every delivered reply must match the reference — the retry,
// quarantine and rebuild machinery absorbs every failure. Every
// request carries a trace id, so the run doubles as the tracing
// non-perturbation check: the ids must come back out in the exec and
// response spans without costing a single correct reply.
func TestServeChaosZeroCorrupted(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 3
	cfg.Seed = 17
	cfg.MaxRetries = 8
	cfg.Chaos = ChaosConfig{
		KillRate:  0.10,
		StormRate: 0.20,
		StormSize: 4,
	}
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
			req := Request{Write: i%4 == 0, Key: uint64(i % s.Records()), Value: uint64(i),
				TraceID: 0xc4a05 + uint64(i)}
			v, err := s.Do(req)
			if err != nil {
				failed.Add(1) // loud failure, never a corrupted reply
				return
			}
			word := workloads.KVRequestWord(req.Write, req.Key, req.Value)
			if v != workloads.KVReference(word, s.ValueWork()) {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()

	var execTraced, respTraced int
	for _, ev := range s.Ring().Snapshot() {
		switch ev.Kind {
		case obs.KindExec:
			if ev.TraceID != 0 {
				execTraced++
			}
		case obs.KindResponse:
			if ev.TraceID != 0 {
				respTraced++
			}
		}
	}
	if execTraced == 0 || respTraced == 0 {
		t.Fatalf("trace ids missing from spans: exec=%d response=%d", execTraced, respTraced)
	}

	m := s.Metrics()
	t.Logf("chaos: events=%v faultedRuns=%d retries=%d rebuilds=%d failed=%d corrupted=%d",
		m.ChaosEvents, m.FaultedRuns, m.Retries, m.Rebuilds, failed.Load(), m.CorruptedReplies)
	if bad.Load() != 0 {
		t.Fatalf("%d delivered replies were wrong under chaos", bad.Load())
	}
	if m.CorruptedReplies != 0 {
		t.Fatalf("verifier counted %d corrupted replies", m.CorruptedReplies)
	}
	if m.ChaosEvents["kill"] == 0 {
		t.Fatal("chaos layer killed no instances")
	}
	if m.ChaosEvents["storm"] == 0 {
		t.Fatal("chaos layer armed no SEU storms")
	}
	if m.Rebuilds == 0 {
		t.Fatal("kills must rebuild instances")
	}
	if m.Responses+m.Failed != n {
		t.Fatalf("accounting: responses %d + failed %d != %d", m.Responses, m.Failed, n)
	}
}

// TestServeChaosTMRZeroCorrupted serves from a TMR-hardened pool with
// host-side verification switched OFF: the majority votes inside the
// program are the only line of defense against the SEU campaign, and
// every delivered reply must still match the reference while the
// corrected-faults counter shows the votes actively working. The HAFT
// pool earns the same invariant via transactions plus the host
// verifier; the TMR pool must earn it standalone and transaction-free.
func TestServeChaosTMRZeroCorrupted(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 3
	cfg.Seed = 37
	cfg.MaxRetries = 8
	cfg.Verify = false // no host-side safety net: the votes are it
	cfg.SEURate = 0.5
	cfg.Harden = core.DefaultConfig()
	cfg.Harden.Mode = core.ModeTMR
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 300
	var wg sync.WaitGroup
	var bad, failed atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Write: i%4 == 0, Key: uint64(i % s.Records()), Value: uint64(i)}
			v, err := s.Do(req)
			if err != nil {
				failed.Add(1) // loud failure, never a corrupted reply
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
	t.Logf("tmr: injected=%d voteCorrections=%d faultedRuns=%d retries=%d failed=%d",
		m.InjectedFaults, m.VoteCorrections, m.FaultedRuns, m.Retries, failed.Load())
	if bad.Load() != 0 || m.CorruptedReplies != 0 {
		t.Fatalf("%d delivered replies were wrong with verification off (audit counted %d)",
			bad.Load(), m.CorruptedReplies)
	}
	if m.InjectedFaults == 0 {
		t.Fatal("SEU campaign armed nothing — the test exercised no faults")
	}
	if m.VoteCorrections == 0 {
		t.Fatal("TMR pool corrected no faults by vote")
	}
	if m.CorrectedFaults < m.VoteCorrections {
		t.Fatalf("corrected_faults %d < vote_corrections %d: votes must feed the corrected counter",
			m.CorrectedFaults, m.VoteCorrections)
	}
	if m.TxStarted != 0 {
		t.Fatalf("TMR pool started %d transactions; TMR must serve transaction-free", m.TxStarted)
	}
	if m.Responses+m.Failed != n {
		t.Fatalf("accounting: responses %d + failed %d != %d", m.Responses, m.Failed, n)
	}
}

// TestServeChaosHang wedges runs via budget exhaustion: the hang
// watchdog must classify them as faulted runs and the retry path must
// still deliver correct replies.
func TestServeChaosHang(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 2
	cfg.Seed = 23
	cfg.MaxRetries = 8
	cfg.Chaos = ChaosConfig{HangRate: 0.3}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	var bad atomic.Uint64
	for i := 0; i < 150; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := uint64(i % s.Records())
			v, err := s.Get(key)
			if err != nil {
				return
			}
			word := workloads.KVRequestWord(false, key, 0)
			if v != workloads.KVReference(word, s.ValueWork()) {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if bad.Load() != 0 {
		t.Fatalf("%d wrong replies under induced hangs", bad.Load())
	}
	if m.ChaosEvents["hang"] == 0 {
		t.Fatal("chaos layer induced no hangs")
	}
	if m.RunStatus["hung"] == 0 {
		t.Fatalf("no run was classified hung: %v", m.RunStatus)
	}
}

// TestServeQuarantineRebuild drives one repeatedly faulting instance
// through quarantine and verifies the rebuilt machine serves correct
// replies again (generation bump, counters reset).
func TestServeQuarantineRebuild(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 4
	cfg.SEURate = 2 // every run armed: the instance faults repeatedly
	cfg.QuarantineAfter = 1
	cfg.MaxRetries = 10
	cfg.Seed = 29
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := uint64(i % s.Records())
			v, err := s.Get(key)
			if err != nil {
				return
			}
			word := workloads.KVRequestWord(false, key, 0)
			if v != workloads.KVReference(word, s.ValueWork()) {
				t.Errorf("wrong reply for key %d after rebuild", key)
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	t.Logf("quarantines=%d rebuilds=%d faultedRuns=%d responses=%d",
		m.Quarantines, m.Rebuilds, m.FaultedRuns, m.Responses)
	if m.Quarantines == 0 {
		t.Fatalf("repeatedly faulting instance was never quarantined: %+v", m)
	}
	if m.Rebuilds < m.Quarantines {
		t.Fatalf("rebuilds %d < quarantines %d: quarantine must rebuild", m.Rebuilds, m.Quarantines)
	}
	if m.Responses == 0 {
		t.Fatal("rebuilt pool served nothing")
	}
	if m.CorruptedReplies != 0 {
		t.Fatalf("%d corrupted replies slipped through quarantine", m.CorruptedReplies)
	}
}

// TestServeDeadline: the per-request watchdog converts unbounded
// waiting into a definitive ErrDeadline.
func TestServeDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 2
	cfg.Chaos = ChaosConfig{HangRate: 1} // every run wedges: nothing completes
	cfg.MaxRetries = 1000
	cfg.RetryBackoff = 5 * time.Millisecond
	cfg.Deadline = 50 * time.Millisecond
	cfg.Seed = 31
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var deadline atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Get(uint64(i % s.Records())); errors.Is(err, ErrDeadline) {
				deadline.Add(1)
			}
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if deadline.Load() == 0 && m.DeadlineFailures == 0 {
		t.Fatalf("no request hit the %v deadline despite constant faulting (metrics: %+v)",
			cfg.Deadline, m)
	}
	t.Logf("deadline errors observed=%d metric=%d", deadline.Load(), m.DeadlineFailures)
}

// TestServeCorruptedRepliesCounted: corrupted_replies is a live counter,
// not an invariant that cannot fail. An unhardened, unverified pool
// under an SEU campaign (the bad node of the cluster forensics test)
// does deliver wrong replies; the counter must equal the mismatches
// the sdc-audit flight bundles recorded, and can never exceed what the
// client itself saw go wrong.
func TestServeCorruptedRepliesCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 1
	cfg.Seed = 61
	cfg.SEURate = 1.5
	cfg.MaxRetries = 6
	cfg.Verify = false
	cfg.Harden = core.DefaultConfig()
	cfg.Harden.Mode = core.ModeNative
	cfg.FlightMax = 4096 // keep every bundle: the test counts them
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wrong := uint64(0)
	for i := 0; i < 200; i++ {
		req := Request{Write: i%4 == 0, Key: uint64(i % s.Records()), Value: uint64(i)}
		v, err := s.Do(req)
		if err != nil {
			continue // loud failure, not a corruption
		}
		if v != workloads.KVReference(workloads.KVRequestWord(req.Write, req.Key, req.Value), s.ValueWork()) {
			wrong++
		}
	}
	audited := uint64(0)
	for _, b := range s.Flight().Bundles() {
		if b.Kind != "sdc-audit" {
			continue
		}
		for i := range b.Replies {
			if b.Replies[i] != b.Expected[i] {
				audited++
			}
		}
	}
	m := s.Metrics()
	t.Logf("injected=%d wrong=%d audited=%d corrupted_replies=%d", m.InjectedFaults, wrong, audited, m.CorruptedReplies)
	if audited == 0 {
		t.Fatal("no sdc-audit bundle recorded — the test exercised no delivered corruption")
	}
	if m.CorruptedReplies != audited {
		t.Fatalf("corrupted_replies = %d, sdc-audit bundles hold %d mismatches", m.CorruptedReplies, audited)
	}
	if m.CorruptedReplies > wrong {
		t.Fatalf("corrupted_replies = %d exceeds the %d wrong replies the client saw", m.CorruptedReplies, wrong)
	}
}
