package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Start and End are nanoseconds since the tracer was
// created; Parent is the id of the span that caused this one (0 for a
// root); Req is shared by all spans of one request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the returned func closes and records it.
func (t *tracer) begin(name string, parent, req uint64) (id uint64, end func()) {
	id = t.next.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		s := span{ID: id, Parent: parent, Req: req, Name: name,
			Start: int64(start), End: int64(time.Since(t.t0))}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children — a
// parallel fan-out — are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTime is the self-time summary of one span name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	SelfMs  float64 `json:"self_ms"`
	TotalMs float64 `json:"total_ms"`
	// SelfP50Us is the median self time of one span of this name.
	SelfP50Us float64 `json:"self_p50_us"`
}

// summarize groups self time by span name, largest first.
func summarize(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	samples := map[string][]float64{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.SelfMs += float64(self[s.ID]) / 1e6
		lt.TotalMs += float64(s.dur()) / 1e6
		samples[s.Name] = append(samples[s.Name], float64(self[s.ID])/1e3)
	}
	out := make([]layerTime, 0, len(byName))
	for name, lt := range byName {
		lt.SelfP50Us = median(samples[name])
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// writeTrace writes the spans of one workload as one JSON document.
func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns since trace start\",\"spans\":[\n", workload)
	for i, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
