package cluster

import (
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestClusterTraceForensicsEndToEnd is the headline acceptance test
// for the distributed-tracing + forensics loop. One of three replicas
// serves native (unhardened) code with host verification off under a
// fixed-seed SEU campaign, so it occasionally delivers a silently
// corrupted reply. The cluster must:
//
//  1. mask the corrupted reply by majority vote (zero corruption
//     delivered) and capture a router-side "vote-mask" flight bundle
//     carrying the request's trace id;
//  2. capture a node-side "sdc-audit" flight bundle for the same
//     trace id with the injected fault plan;
//  3. replay that bundle deterministically and localize the exact
//     injected instruction (function + line);
//  4. link the request's router dispatch/vote spans and the node exec
//     span under the one trace id in the collector-merged cluster
//     trace.
func TestClusterTraceForensicsEndToEnd(t *testing.T) {
	// node-0: native code, no host verifier, every run SEU-armed — the
	// only node that can emit silent corruptions.
	badCfg := nodeConfig()
	badCfg.Pool = 1
	badCfg.Batch = 1
	badCfg.Seed = 61
	badCfg.SEURate = 1.5
	badCfg.MaxRetries = 6
	badCfg.Verify = false
	badCfg.Harden = core.DefaultConfig()
	badCfg.Harden.Mode = core.ModeNative

	cleanCfg := nodeConfig()
	cleanCfg.Seed = 62

	mk := func(id string, cfg serve.Config) *LocalBackend {
		b, err := NewLocalBackend(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b0 := mk("node-0", badCfg)
	b1 := mk("node-1", cleanCfg)
	b2 := mk("node-2", cleanCfg)

	ccfg := DefaultConfig()
	ccfg.Shards = 16
	ccfg.Seed = 63
	c, err := New([]Backend{b0, b1, b2}, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Drive traced reads until the voter masks a corrupted reply from
	// node-0 and records the forensic bundle for it.
	var mask *obs.FlightBundle
	for i := 0; i < 600 && mask == nil; i++ {
		tid := 0x7ace0000 + uint64(i)
		if _, err := c.Do(serve.Request{Key: uint64(i % 128), TraceID: tid}); err != nil {
			continue // loud failure is fine; silent corruption is not
		}
		for _, b := range c.Flight().Bundles() {
			if b.Kind == "vote-mask" && b.Trace != "" {
				mask = b
				break
			}
		}
	}
	if mask == nil {
		t.Fatal("no corrupted reply was ever masked (no vote-mask bundle)")
	}
	if mask.Node != ccfg.Node && mask.Node != "router" {
		t.Fatalf("mask bundle node = %q", mask.Node)
	}
	if len(mask.Expected) == 0 || len(mask.Replies) == 0 || mask.Replies[0] == mask.Expected[0] {
		t.Fatalf("mask bundle lacks the masked/majority pair: %+v", mask)
	}

	snap := c.Metrics()
	if snap.DeliveredCorruptions != 0 {
		t.Fatalf("%d corruptions delivered", snap.DeliveredCorruptions)
	}
	if snap.DetectedCorruptions == 0 {
		t.Fatal("voter masked a reply but counted no detected corruption")
	}

	// The faulty node must hold an sdc-audit bundle for the same trace
	// id, carrying the injected fault plan that caused the masked
	// reply.
	srv0 := b0.Server()
	var audit *obs.FlightBundle
	for _, b := range srv0.Flight().Bundles() {
		if b.Kind != "sdc-audit" {
			continue
		}
		if b.Trace == mask.Trace || slices.Contains(b.Traces, mask.Trace) {
			audit = b
			break
		}
	}
	if audit == nil {
		t.Fatalf("node-0 has no sdc-audit bundle for masked trace %s (bundles: %d)",
			mask.Trace, len(srv0.Flight().Bundles()))
	}
	if len(audit.Faults) == 0 || !audit.Faults[0].Injected {
		t.Fatalf("audit bundle carries no injected fault plan: %+v", audit.Faults)
	}

	// Deterministic replay localizes the injected instruction exactly.
	rep, err := serve.ReplayBundle(audit)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("replay:\n%s", rep.Render())
	if !rep.HashMatch {
		t.Fatal("replay rebuilt a different program")
	}
	if rep.Divergence == nil || !rep.Localized {
		t.Fatalf("audit bundle not localized: divergence=%+v", rep.Divergence)
	}
	if rep.Divergence.Func == "" || rep.Divergence.Line <= 0 {
		t.Fatalf("divergence lacks function/line attribution: %+v", rep.Divergence)
	}
	if !rep.RepliesMatchBundle {
		t.Fatal("replay did not reproduce the corrupted replies the bundle recorded")
	}

	// Scrape every ring and merge: the masked request's dispatch, exec,
	// and vote spans must link under its trace id across router and
	// node rings.
	tsR := httptest.NewServer(c.DebugHandler())
	defer tsR.Close()
	ts0 := httptest.NewServer(obs.NewHandler(obs.HandlerConfig{Ring: b0.Server().Ring(), Node: "node-0"}))
	defer ts0.Close()
	ts1 := httptest.NewServer(obs.NewHandler(obs.HandlerConfig{Ring: b1.Server().Ring(), Node: "node-1"}))
	defer ts1.Close()
	ts2 := httptest.NewServer(obs.NewHandler(obs.HandlerConfig{Ring: b2.Server().Ring(), Node: "node-2"}))
	defer ts2.Close()

	col := obs.NewCollector(
		obs.ScrapeTarget{Node: "router", URL: tsR.URL},
		obs.ScrapeTarget{Node: "node-0", URL: ts0.URL},
		obs.ScrapeTarget{Node: "node-1", URL: ts1.URL},
		obs.ScrapeTarget{Node: "node-2", URL: ts2.URL},
	)
	trace, err := col.Scrape()
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}

	var spans []obs.ClusterEvent
	for _, ev := range trace.Events {
		if ev.Trace == mask.Trace {
			spans = append(spans, ev)
		}
	}
	nodes := map[string]bool{}
	kinds := map[string]bool{}
	for _, ev := range spans {
		nodes[ev.Node] = true
		kinds[ev.Kind] = true
	}
	if !nodes["router"] {
		t.Fatalf("masked trace %s has no router span: %+v", mask.Trace, spans)
	}
	if !nodes["node-0"] && !nodes["node-1"] && !nodes["node-2"] {
		t.Fatalf("masked trace %s has no node span: %+v", mask.Trace, spans)
	}
	for _, k := range []string{"dispatch", "vote", "exec"} {
		if !kinds[k] {
			t.Fatalf("masked trace %s missing %q span (kinds: %v)", mask.Trace, k, kinds)
		}
	}

	link := trace.LinkReport()
	t.Logf("link: %d traces, %d linked (%.2f)", link.Traces, link.Linked, link.Fraction)
	if link.Traces == 0 || link.Fraction < 0.9 {
		t.Fatalf("cross-node linkage too low: %+v", link)
	}
}

// TestClusterMintsTraceIDs: untagged requests get router-minted trace
// ids so the fan-out is traceable even for legacy clients, and the
// minted ids are deterministic for a fixed cluster seed.
func TestClusterMintsTraceIDs(t *testing.T) {
	run := func() []uint64 {
		cfg := DefaultConfig()
		cfg.Shards = 8
		cfg.Seed = 91
		c, err := New(localBackends(t, 3, nodeConfig()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 20; i++ {
			if _, err := c.Get(uint64(i)); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		var tids []uint64
		for _, ev := range c.ObsRing().Snapshot() {
			if ev.Kind == obs.KindDispatch {
				if ev.TraceID == 0 {
					t.Fatal("dispatch span with zero trace id")
				}
				tids = append(tids, ev.TraceID)
			}
		}
		if len(tids) != 20 {
			t.Fatalf("expected 20 dispatch spans, got %d", len(tids))
		}
		return tids
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatalf("minted trace ids not deterministic:\n%x\n%x", a, b)
	}
}
