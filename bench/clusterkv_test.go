package main

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
)

type fakeBackend struct {
	cluster.Backend // nil: only Do is called
	calls           int
}

func (f *fakeBackend) Do(req serve.Request) (uint64, error) {
	f.calls++
	return req.Key, nil
}

// The decorator files each replica call under the root span registered
// for the request's TraceID, and passes everything else through
// unrecorded.
func TestTimedBackendGroupsByTraceID(t *testing.T) {
	ft := &fanoutTrace{tr: newTracer()}
	fake := &fakeBackend{}
	be := timedBackend{fake, ft}

	ft.parents.Store(uint64(11), uint64(100))
	ft.parents.Store(uint64(22), uint64(200))
	be.Do(serve.Request{Key: 1, TraceID: 11}) // tracing still off
	ft.on.Store(true)
	for _, tid := range []uint64{11, 22, 11, 33, 11} { // 33: a health probe or replay, never registered
		if v, err := be.Do(serve.Request{Key: tid, TraceID: tid}); v != tid || err != nil {
			t.Fatalf("Do passed through %v, %v", v, err)
		}
	}
	if fake.calls != 6 {
		t.Errorf("backend saw %d calls, want 6", fake.calls)
	}
	byParent := map[uint64]int{}
	for _, s := range ft.tr.snapshot() {
		if s.Name != "backend.do" || s.Req != s.Parent/100*11 {
			t.Errorf("unexpected span %+v", s)
		}
		byParent[s.Parent]++
	}
	if len(byParent) != 2 || byParent[100] != 3 || byParent[200] != 1 {
		t.Errorf("spans by parent = %v, want 100:3 200:1", byParent)
	}
}

func TestFanoutStats(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{ID: 1, Name: "cluster.do.read", Start: 0, End: us(100)},
		{ID: 2, Parent: 1, Name: "backend.do", Start: us(5), End: us(45)},
		{ID: 3, Parent: 1, Name: "backend.do", Start: us(5), End: us(95)},
		{ID: 4, Parent: 1, Name: "backend.do", Start: us(6), End: us(66)},
		{ID: 5, Name: "cluster.do.write", Start: 0, End: us(50)},
		{ID: 6, Parent: 5, Name: "backend.do", Start: us(10), End: us(40)},
		{ID: 7, Name: "cluster.do.read", Start: 0, End: us(9)}, // failed before any replica call
	}
	st := fanout(spans)
	if len(st.backendUs) != 4 {
		t.Errorf("%d replica calls, want 4", len(st.backendUs))
	}
	if len(st.slowestUs) != 2 || st.slowestUs[0] != 90 || st.slowestUs[1] != 30 {
		t.Errorf("slowest replica = %v, want [90 30]", st.slowestUs)
	}
	if len(st.readSpreadUs) != 1 || st.readSpreadUs[0] != 50 {
		t.Errorf("read spread = %v, want [50] (writes and childless requests left out)", st.readSpreadUs)
	}
	if len(st.routerSelfUs) != 2 || st.routerSelfUs[0] != 10 || st.routerSelfUs[1] != 20 {
		t.Errorf("router self = %v, want [10 20]", st.routerSelfUs)
	}
}
