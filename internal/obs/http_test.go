package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func debugHandlerForTest() http.Handler {
	reg := NewRegistry()
	reg.Set("haft_up", "", 1)
	ring := NewRing(16)
	ring.Emit(Event{Kind: KindTxBegin, Time: 2000})
	ring.Emit(Event{Kind: KindTxCommit, Time: 4000})
	healthy := true
	return NewHandler(HandlerConfig{
		Metrics: []func(io.Writer){reg.WriteProm, func(w io.Writer) { io.WriteString(w, "extra_metric 7\n") }},
		Ring:    ring,
		Health: func() Health {
			return Health{OK: healthy, Detail: map[string]any{"pool_size": 4}}
		},
	})
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec, rec.Body.String()
}

func TestHandlerMetrics(t *testing.T) {
	rec, body := get(t, debugHandlerForTest(), "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(body, "haft_up 1") || !strings.Contains(body, "extra_metric 7") {
		t.Fatalf("metrics body missing samples:\n%s", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
}

// TestHandlerPprof: the Go profiler is mounted on the same listener.
func TestHandlerPprof(t *testing.T) {
	h := debugHandlerForTest()
	if rec, body := get(t, h, "/debug/pprof/cmdline"); rec.Code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: status %d, body %q", rec.Code, body)
	}
	if rec, body := get(t, h, "/debug/pprof/goroutine?debug=1"); rec.Code != 200 || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("/debug/pprof/goroutine: status %d", rec.Code)
	}
	if _, body := get(t, h, "/"); !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index does not list the profiler: %q", body)
	}
}

func TestHandlerTrace(t *testing.T) {
	rec, body := get(t, debugHandlerForTest(), "/trace")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // 2 metadata + 2 events
		t.Fatalf("trace has %d records, want 4", len(doc.TraceEvents))
	}
}

func TestHandlerHealthz(t *testing.T) {
	rec, body := get(t, debugHandlerForTest(), "/healthz")
	if rec.Code != 200 || !strings.Contains(body, `"ok": true`) {
		t.Fatalf("healthz: %d %s", rec.Code, body)
	}
}

func TestHandlerHealthzUnhealthy(t *testing.T) {
	h := NewHandler(HandlerConfig{Health: func() Health { return Health{OK: false} }})
	rec, _ := get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}

func TestHandlerMissingPiecesAnswer404(t *testing.T) {
	h := NewHandler(HandlerConfig{})
	for _, path := range []string{"/metrics", "/trace", "/nosuch"} {
		if rec, _ := get(t, h, path); rec.Code != 404 {
			t.Fatalf("%s: status %d, want 404", path, rec.Code)
		}
	}
	if rec, _ := get(t, h, "/healthz"); rec.Code != 200 {
		t.Fatalf("default healthz should be OK")
	}
}

func TestListenAndServe(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", debugHandlerForTest())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(b), "haft_up") {
		t.Fatalf("live scrape failed: %d %s", resp.StatusCode, b)
	}
}
