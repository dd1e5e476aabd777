package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// driveUntilBundle pushes sequential traced requests through the
// server until a flight bundle matching want arrives (or the request
// budget runs out). Sequential submission keeps the single-worker
// run/retry interleaving deterministic for a fixed seed.
func driveUntilBundle(t *testing.T, s *Server, want func(*obs.FlightBundle) bool) *obs.FlightBundle {
	t.Helper()
	for i := 0; i < 400; i++ {
		req := Request{
			Write:   i%4 == 0,
			Key:     uint64(i % s.Records()),
			Value:   uint64(i * 13),
			TraceID: 0xace0000 + uint64(i),
		}
		s.Do(req) // errors are fine: faulted runs are the point
		for _, b := range s.Flight().Bundles() {
			if want(b) {
				return b
			}
		}
	}
	t.Fatal("no matching flight bundle after 400 requests")
	return nil
}

// TestFlightReplayLocalizesInjectedSEU is the detect→diagnose loop end
// to end on one node: a fixed-seed SEU campaign corrupts a reply, the
// host verifier rejects it and captures a flight bundle, and replaying
// the bundle with stepwise dispatch re-injects the recorded fault
// and names the exact corrupted instruction — function, block, op, and
// source line — with profiler attribution.
func TestFlightReplayLocalizesInjectedSEU(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 1
	cfg.Seed = 101
	cfg.SEURate = 2 // every run armed
	cfg.MaxRetries = 2
	cfg.Harden = core.DefaultConfig()
	cfg.Harden.Mode = core.ModeNative // no in-VM defense: SDCs reach the verifier
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b := driveUntilBundle(t, s, func(b *obs.FlightBundle) bool {
		return b.Kind == "verify-reject" && len(b.Faults) > 0 && b.Faults[0].Injected
	})

	if b.Trace == "" {
		t.Fatal("bundle lost the request's trace id")
	}
	if b.ProgramHash == "" || b.Mode != "native" {
		t.Fatalf("bundle identity incomplete: hash=%q mode=%q", b.ProgramHash, b.Mode)
	}
	if len(b.Window) == 0 {
		t.Fatal("bundle captured no ring window")
	}

	rep, err := ReplayBundle(b)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("replay:\n%s", rep.Render())
	if !rep.HashMatch {
		t.Fatal("replay rebuilt a different program (hash mismatch)")
	}
	if rep.Divergence == nil {
		t.Fatal("replay found no divergence for an injected, reply-corrupting fault")
	}
	d := rep.Divergence
	if d.Func == "" || d.Op == "" {
		t.Fatalf("divergence not named: %+v", d)
	}
	if d.Line <= 0 {
		t.Fatalf("divergence has no source line: %+v", d)
	}
	if !rep.Localized {
		t.Fatalf("divergence at %s (write #%d) does not match the injected site %q (target %d)",
			d.Site(), d.Index, b.Faults[0].Where, b.Faults[0].TargetIndex)
	}
	// Exact localization: the first divergent write IS the injection.
	if d.Index != b.Faults[0].TargetIndex && d.Site() != b.Faults[0].Where {
		t.Fatalf("localization imprecise: divergence index %d site %q vs fault index %d site %q",
			d.Index, d.Site(), b.Faults[0].TargetIndex, b.Faults[0].Where)
	}
	if !rep.RepliesMatchBundle {
		t.Fatal("faulted replay did not reproduce the bundle's recorded replies (nondeterministic replay)")
	}
	if rep.Attribution == "" || !strings.Contains(rep.Attribution, ":") {
		t.Fatalf("no profiler attribution for the divergent line: %q", rep.Attribution)
	}
	if rep.Profile.Total == 0 {
		t.Fatal("reference profile is empty")
	}
}

// TestFlightReplayILRDetected replays a bundle captured at an ILR
// fail-stop (HAFT mode): the faulted re-execution must reproduce the
// detection and still localize the divergence.
func TestFlightReplayILRDetected(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = 1
	cfg.Batch = 1
	cfg.Seed = 7
	cfg.SEURate = 2
	cfg.MaxRetries = 2
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b := driveUntilBundle(t, s, func(b *obs.FlightBundle) bool {
		return b.Kind == "ilr-detected" && len(b.Faults) > 0 && b.Faults[0].Injected
	})
	rep, err := ReplayBundle(b)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("replay:\n%s", rep.Render())
	if rep.RefStatus != "ok" {
		t.Fatalf("clean reference run not ok: %s", rep.RefStatus)
	}
	if rep.ReplayStatus != "ilr-detected" {
		t.Fatalf("replay did not reproduce the detection: %s", rep.ReplayStatus)
	}
	if rep.Divergence == nil || !rep.Localized {
		t.Fatalf("ILR bundle not localized: divergence=%+v localized=%v", rep.Divergence, rep.Localized)
	}
}

// TestTraceIDPlumbingDoesNotPerturbExecution runs the same fixed-seed
// request sequence against two identically configured servers — one
// tagging every request with a trace id, one untagged — and requires
// bit-identical replies and identical run/fault/verify accounting: the
// tracing layer must be pure observation.
func TestTraceIDPlumbingDoesNotPerturbExecution(t *testing.T) {
	mk := func() *Server {
		cfg := testConfig()
		cfg.Pool = 1
		cfg.Batch = 1
		cfg.Seed = 55
		cfg.SEURate = 0.4 // exercise the fault/retry paths too
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tagged, plain := mk(), mk()
	defer tagged.Close()
	defer plain.Close()

	const n = 120
	for i := 0; i < n; i++ {
		req := Request{Write: i%3 == 0, Key: uint64(i % tagged.Records()), Value: uint64(i * 7)}
		treq := req
		treq.TraceID = 0xbeef0000 + uint64(i)
		tv, terr := tagged.Do(treq)
		pv, perr := plain.Do(req)
		if (terr == nil) != (perr == nil) {
			t.Fatalf("req %d: error divergence tagged=%v plain=%v", i, terr, perr)
		}
		if terr == nil && tv != pv {
			t.Fatalf("req %d: reply divergence tagged=%#x plain=%#x", i, tv, pv)
		}
	}
	tm, pm := tagged.Metrics(), plain.Metrics()
	if tm.Runs != pm.Runs || tm.InjectedFaults != pm.InjectedFaults ||
		tm.VerifyRejects != pm.VerifyRejects || tm.Retries != pm.Retries ||
		tm.FaultedRuns != pm.FaultedRuns {
		t.Fatalf("accounting diverged:\ntagged: runs=%d injected=%d rejects=%d retries=%d faulted=%d\nplain:  runs=%d injected=%d rejects=%d retries=%d faulted=%d",
			tm.Runs, tm.InjectedFaults, tm.VerifyRejects, tm.Retries, tm.FaultedRuns,
			pm.Runs, pm.InjectedFaults, pm.VerifyRejects, pm.Retries, pm.FaultedRuns)
	}
	for k, v := range tm.RunStatus {
		if pm.RunStatus[k] != v {
			t.Fatalf("run status diverged at %q: tagged=%d plain=%d", k, v, pm.RunStatus[k])
		}
	}
	if tm.CorruptedReplies != 0 || pm.CorruptedReplies != 0 {
		t.Fatal("corrupted replies delivered")
	}
}

// TestQueueWaitExecLatencySplit: the serving metrics split every
// response's latency into queue wait and execution time; the split
// must be internally consistent and exported through /metrics and the
// stats view.
func TestQueueWaitExecLatencySplit(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 80; i++ {
		if _, err := s.Get(uint64(i % s.Records())); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	m := s.Metrics()
	if m.Responses == 0 {
		t.Fatal("no responses")
	}
	if m.ExecMean <= 0 || m.ExecP50 <= 0 {
		t.Fatalf("exec split empty: mean=%g p50=%g", m.ExecMean, m.ExecP50)
	}
	if m.QueueWaitMean < 0 || m.QueueWaitP99 < 0 {
		t.Fatalf("negative queue wait: mean=%g p99=%g", m.QueueWaitMean, m.QueueWaitP99)
	}
	// Each response's queue wait and exec sum to its latency, so the
	// means must agree to float rounding.
	if diff := math.Abs(m.LatencyMean - (m.QueueWaitMean + m.ExecMean)); diff > 1e-9 {
		t.Fatalf("split does not sum: latency mean %g != queue %g + exec %g (diff %g)",
			m.LatencyMean, m.QueueWaitMean, m.ExecMean, diff)
	}

	var sb strings.Builder
	s.WriteProm(&sb)
	prom, view := sb.String(), s.Stats()
	for _, name := range []string{
		"haft_serve_queue_wait_p50_seconds",
		"haft_serve_queue_wait_p99_seconds",
		"haft_serve_exec_p50_seconds",
		"haft_serve_exec_p99_seconds",
	} {
		if !strings.Contains(prom, name) {
			t.Fatalf("prometheus exposition missing %s", name)
		}
		if _, ok := view[name]; !ok {
			t.Fatalf("stats view missing %s", name)
		}
	}
}
