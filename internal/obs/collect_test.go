package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// testRing returns a ring with a deterministic logical clock.
func testRing(depth int) *Ring {
	r := NewRing(depth)
	var tick uint64
	r.Now = func() uint64 { tick += 1000; return tick }
	return r
}

func debugServer(t *testing.T, node string, ring *Ring) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(HandlerConfig{Ring: ring, Node: node}))
	t.Cleanup(srv.Close)
	return srv
}

// logicalCollector pins the collector clock so offsets are
// deterministic.
func logicalCollector(targets ...ScrapeTarget) *Collector {
	c := NewCollector(targets...)
	var tick uint64
	c.Now = func() uint64 { tick += 10; return tick }
	return c
}

// emitSpans fills a router ring and a node ring with one traced
// request's spans plus some untraced noise.
func emitSpans(router, node *Ring, tid uint64) {
	router.Emit(Event{Kind: KindDispatch, Domain: DomainWall, Time: 10, A: 7, Label: "read", TraceID: tid})
	node.Emit(Event{Kind: KindExec, Domain: DomainWall, Time: 20, Actor: 2, A: 1, TraceID: tid})
	node.Emit(Event{Kind: KindTxCommit, Domain: DomainVM, Time: 500, Actor: 2})
	router.Emit(Event{Kind: KindVote, Domain: DomainWall, Time: 30, A: 7, B: 0x99, TraceID: tid})
}

func TestCollectorShardedScrapesMergeByteIdentical(t *testing.T) {
	router, node := testRing(64), testRing(64)
	const tid = 0xfeed
	emitSpans(router, node, tid)
	rs := debugServer(t, "router", router)
	ns := debugServer(t, "node1", node)
	rTgt := ScrapeTarget{Node: "router", URL: rs.URL}
	nTgt := ScrapeTarget{Node: "node1", URL: ns.URL}

	// One collector sees both nodes in one scrape.
	whole, err := logicalCollector(rTgt, nTgt).Scrape()
	if err != nil {
		t.Fatalf("whole scrape: %v", err)
	}
	// Two sharded collectors each see one node; their traces merge.
	t1, err := logicalCollector(rTgt).Scrape()
	if err != nil {
		t.Fatalf("shard 1 scrape: %v", err)
	}
	t2, err := logicalCollector(nTgt).Scrape()
	if err != nil {
		t.Fatalf("shard 2 scrape: %v", err)
	}
	sharded := Merge(t1, t2)

	if len(whole.Events) != 4 || len(sharded.Events) != 4 {
		t.Fatalf("event counts: whole %d sharded %d, want 4", len(whole.Events), len(sharded.Events))
	}
	a, b := whole.EncodeCanonical(), sharded.EncodeCanonical()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encodes differ:\nwhole:\n%s\nsharded:\n%s", a, b)
	}

	// The canonical form must survive a decode round trip.
	back, err := DecodeClusterTrace(a)
	if err != nil {
		t.Fatalf("decode canonical: %v", err)
	}
	if !bytes.Equal(back.EncodeCanonical(), a) {
		t.Fatal("canonical encode not stable under decode round trip")
	}
}

func TestCollectorAlignsAndLinksAcrossNodes(t *testing.T) {
	router, node := testRing(64), testRing(64)
	const tid = 0xfeed
	emitSpans(router, node, tid)
	rs := debugServer(t, "router", router)
	ns := debugServer(t, "node1", node)
	col := logicalCollector(
		ScrapeTarget{Node: "router", URL: rs.URL},
		ScrapeTarget{Node: "node1", URL: ns.URL},
	)
	trace, err := col.Scrape()
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if len(trace.Nodes) != 2 {
		t.Fatalf("node clocks: got %d, want 2", len(trace.Nodes))
	}
	// Wall events shift by the node offset; the merged order is total
	// and deterministic.
	for i := 1; i < len(trace.Events); i++ {
		if trace.Events[i].AlignedNs < trace.Events[i-1].AlignedNs {
			t.Fatalf("events out of aligned order at %d", i)
		}
	}
	var spans []ClusterEvent
	for _, ev := range trace.Events {
		if ev.Trace == hexWord(tid) {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("trace %#x spans: got %d, want 3", tid, len(spans))
	}
	nodes := map[string]bool{}
	kinds := map[string]bool{}
	for _, ev := range spans {
		nodes[ev.Node] = true
		kinds[ev.Kind] = true
	}
	if !nodes["router"] || !nodes["node1"] {
		t.Fatalf("trace %#x not cross-node: %v", tid, nodes)
	}
	for _, k := range []string{"dispatch", "exec", "vote"} {
		if !kinds[k] {
			t.Fatalf("trace %#x missing %s span (have %v)", tid, k, kinds)
		}
	}
	rep := trace.LinkReport()
	if rep.Traces != 1 || rep.Linked != 1 || rep.Fraction != 1.0 {
		t.Fatalf("link report: %+v, want 1/1 linked", rep)
	}
}

func TestCollectorIncrementalCursor(t *testing.T) {
	ring := testRing(64)
	ring.Emit(Event{Kind: KindRequest, Domain: DomainWall, Time: 1, A: 1})
	ring.Emit(Event{Kind: KindResponse, Domain: DomainWall, Time: 2, A: 1})
	srv := debugServer(t, "n0", ring)
	col := logicalCollector(ScrapeTarget{Node: "n0", URL: srv.URL})

	first, err := col.Scrape()
	if err != nil {
		t.Fatalf("first scrape: %v", err)
	}
	if len(first.Events) != 2 {
		t.Fatalf("first scrape: %d events, want 2", len(first.Events))
	}

	ring.Emit(Event{Kind: KindRequest, Domain: DomainWall, Time: 3, A: 2})
	second, err := col.Scrape()
	if err != nil {
		t.Fatalf("second scrape: %v", err)
	}
	if len(second.Events) != 1 {
		t.Fatalf("second scrape not incremental: %d events, want 1", len(second.Events))
	}
	if second.Events[0].Seq != 2 {
		t.Fatalf("second scrape seq: got %d, want 2", second.Events[0].Seq)
	}

	third, err := col.Scrape()
	if err != nil {
		t.Fatalf("third scrape: %v", err)
	}
	if len(third.Events) != 0 {
		t.Fatalf("idle scrape returned %d events, want 0", len(third.Events))
	}

	merged := Merge(first, second)
	if len(merged.Events) != 3 {
		t.Fatalf("merged: %d events, want 3", len(merged.Events))
	}
	// Dedup: merging overlapping views must not duplicate events.
	if again := Merge(merged, first); len(again.Events) != 3 {
		t.Fatalf("overlapping merge: %d events, want 3", len(again.Events))
	}
}

func TestCollectorSurvivesDeadTarget(t *testing.T) {
	ring := testRing(64)
	ring.Emit(Event{Kind: KindRequest, Domain: DomainWall, Time: 1, A: 1})
	live := debugServer(t, "alive", ring)
	dead := httptest.NewServer(nil)
	dead.Close() // refuse connections

	col := logicalCollector(
		ScrapeTarget{Node: "alive", URL: live.URL},
		ScrapeTarget{Node: "gone", URL: dead.URL},
	)
	trace, err := col.Scrape()
	if err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("expected scrape error naming the dead node, got %v", err)
	}
	if len(trace.Events) != 1 || trace.Events[0].Node != "alive" {
		t.Fatalf("partial trace lost the survivor: %+v", trace.Events)
	}
}
