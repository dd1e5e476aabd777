package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "do", Start: 0, End: 100},
		// A parallel fan-out: 10..60 and 20..80 cover 10..80 once.
		{ID: 2, Parent: 1, Name: "backend", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "backend", Start: 20, End: 80},
		// A child that outlives its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "backend", Start: 90, End: 130},
		// A grandchild takes time from its own parent only.
		{ID: 5, Parent: 2, Name: "exec", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 20, 2: 40, 3: 60, 4: 40, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if sum[0].Name != "backend" || sum[0].Count != 3 || math.Abs(sum[0].SelfMs-140e-6) > 1e-12 {
		t.Errorf("largest layer = %+v, want backend x3 with 140 ns self", sum[0])
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.begin("root", 0, 7)
	_, endKid := tr.begin("kid", root, 7)
	endKid()
	endRoot()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Name != "kid" || spans[0].Parent != root || spans[0].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start > spans[0].Start || spans[1].End < spans[0].End {
		t.Errorf("root %+v does not enclose kid %+v", spans[1], spans[0])
	}
}
