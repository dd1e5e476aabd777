package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Health is what /healthz reports.
type Health struct {
	OK     bool           `json:"ok"`
	Detail map[string]any `json:"detail,omitempty"`
}

// HandlerConfig wires the debug endpoints. Every field is optional;
// missing pieces answer 404 (endpoints) or are simply absent from the
// exposition.
type HandlerConfig struct {
	// Metrics writers each append Prometheus text exposition to
	// /metrics (e.g. a Registry's WriteProm plus a serve-layer
	// snapshot writer).
	Metrics []func(io.Writer)
	// Ring backs /trace, which snapshots it as Chrome trace JSON.
	Ring *Ring
	// Chrome parameterizes the /trace export.
	Chrome ChromeOptions
	// Node names this process in raw trace scrapes (the cluster
	// collector stamps it on merged events).
	Node string
	// Health backs /healthz: 200 with a JSON body when OK, 503
	// otherwise.
	Health func() Health
}

// RawTrace is the machine-readable /trace?raw=1 response consumed by
// the cluster collector. Now is the node's wall clock (Ring.Now) read
// at scrape time, which the collector uses for offset alignment.
type RawTrace struct {
	Node    string        `json:"node"`
	Now     uint64        `json:"now"`
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []EventRecord `json:"events"`
}

// NewHandler returns the debug mux: /metrics, /trace, /healthz, the Go
// profiler under /debug/pprof/, and an index at /.
func NewHandler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "haft debug endpoints: /metrics /trace /healthz /debug/pprof/\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index) // heap, goroutine, allocs, ... by name
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if len(cfg.Metrics) == 0 {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, fn := range cfg.Metrics {
			fn(w)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Ring == nil {
			http.NotFound(w, req)
			return
		}
		evs := cfg.Ring.Snapshot()
		if s := req.URL.Query().Get("since"); s != "" {
			since, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			// Snapshot is seq-sorted; binary-search the cursor.
			lo := sort.Search(len(evs), func(i int) bool { return evs[i].Seq >= since })
			evs = evs[lo:]
		}
		w.Header().Set("Content-Type", "application/json")
		if req.URL.Query().Get("raw") != "" {
			raw := RawTrace{
				Node:    cfg.Node,
				Now:     cfg.Ring.Now(),
				Total:   cfg.Ring.Total(),
				Dropped: cfg.Ring.Dropped(),
				Events:  ToRecords(evs),
			}
			enc := json.NewEncoder(w)
			enc.Encode(raw)
			return
		}
		opt := cfg.Chrome
		opt.Dropped = cfg.Ring.Dropped()
		w.Write(ChromeTrace(evs, opt))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		h := Health{OK: true}
		if cfg.Health != nil {
			h = cfg.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
	return mux
}

// DebugServer is a running debug listener.
type DebugServer struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	srv  *http.Server
}

// Close shuts the listener down.
func (d *DebugServer) Close() error { return d.srv.Close() }

// ListenAndServe starts the debug endpoints on addr in a background
// goroutine and returns once the listener is bound.
func ListenAndServe(addr string, h http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return &DebugServer{Addr: ln.Addr().String(), srv: srv}, nil
}
