package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// ScrapeTarget names one process's debug endpoint for the collector.
type ScrapeTarget struct {
	Node string // logical node name ("router", "node1", ...)
	URL  string // base URL of the debug listener, e.g. "http://127.0.0.1:7980"
}

// NodeClock records the scrape-time offset handshake for one node:
// collector_clock ≈ node_clock + OffsetNs, estimated at the midpoint
// of the scrape round trip. All of a node's wall-domain timestamps are
// shifted by its offset so the merged timeline is causally ordered
// even though every ring runs its own clock.
type NodeClock struct {
	Node     string `json:"node"`
	OffsetNs int64  `json:"offset_ns"`
	Total    uint64 `json:"total"`
	Dropped  uint64 `json:"dropped"`
}

// ClusterEvent is one event in a merged cluster-wide trace: the
// portable event record plus its origin node and collector-aligned
// wall time. VM-domain events carry simulated cycles in Time, which
// no offset can align; their AlignedNs is the node's offset alone,
// anchoring them near the node's wall events in the merged ordering.
type ClusterEvent struct {
	Node      string `json:"node"`
	AlignedNs int64  `json:"aligned_ns"`
	EventRecord
}

// ClusterTrace is the canonical merged view of every scraped ring.
type ClusterTrace struct {
	Nodes  []NodeClock    `json:"nodes"`
	Events []ClusterEvent `json:"events"`
}

// Collector scrapes /trace?raw=1 from a set of nodes, keeping a
// per-node ?since= cursor so repeated scrapes are incremental, and
// clock-aligns each node's events into the collector's own timeline.
type Collector struct {
	// Client performs the scrape requests; defaults to a 10s-timeout
	// client.
	Client *http.Client
	// Now is the collector's wall clock in nanoseconds; defaults to
	// time since collector creation. Tests replace it with a logical
	// clock for deterministic offsets.
	Now func() uint64

	targets []ScrapeTarget
	cursors map[string]uint64
}

// NewCollector returns a collector over the given targets.
func NewCollector(targets ...ScrapeTarget) *Collector {
	start := time.Now()
	return &Collector{
		Client:  &http.Client{Timeout: 10 * time.Second},
		Now:     func() uint64 { return uint64(time.Since(start)) },
		targets: targets,
		cursors: make(map[string]uint64, len(targets)),
	}
}

// Scrape fetches new events from every target since the previous
// scrape and returns them as one aligned trace. Unreachable targets
// are skipped and reported in the joined error alongside the partial
// trace, so a dead node never hides the survivors' history.
func (c *Collector) Scrape() (ClusterTrace, error) {
	var out ClusterTrace
	var errs []error
	for _, tgt := range c.targets {
		t0 := c.Now()
		raw, err := c.fetch(tgt)
		t1 := c.Now()
		if err != nil {
			errs = append(errs, fmt.Errorf("scrape %s: %w", tgt.Node, err))
			continue
		}
		// Offset handshake: assume the node read its clock at the
		// midpoint of our round trip.
		offset := int64((t0+t1)/2) - int64(raw.Now)
		out.Nodes = append(out.Nodes, NodeClock{
			Node:     tgt.Node,
			OffsetNs: offset,
			Total:    raw.Total,
			Dropped:  raw.Dropped,
		})
		c.cursors[tgt.Node] = raw.Total
		for _, r := range raw.Events {
			aligned := offset
			if r.Domain == "wall" {
				aligned += int64(r.Time)
			}
			out.Events = append(out.Events, ClusterEvent{
				Node:        tgt.Node,
				AlignedNs:   aligned,
				EventRecord: r,
			})
		}
	}
	sortClusterTrace(&out)
	return out, errors.Join(errs...)
}

func (c *Collector) fetch(tgt ScrapeTarget) (RawTrace, error) {
	url := fmt.Sprintf("%s/trace?raw=1&since=%d", tgt.URL, c.cursors[tgt.Node])
	resp, err := c.Client.Get(url)
	if err != nil {
		return RawTrace{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RawTrace{}, fmt.Errorf("status %s", resp.Status)
	}
	var raw RawTrace
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return RawTrace{}, err
	}
	return raw, nil
}

// sortClusterTrace orders nodes by name and events by the merged
// timeline key (aligned time, node, ring sequence) — a total,
// deterministic order.
func sortClusterTrace(t *ClusterTrace) {
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i].Node < t.Nodes[j].Node })
	sort.Slice(t.Events, func(i, j int) bool {
		a, b := &t.Events[i], &t.Events[j]
		if a.AlignedNs != b.AlignedNs {
			return a.AlignedNs < b.AlignedNs
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
}

// Merge unions cluster traces (e.g. from sharded collectors or
// repeated incremental scrapes) into one. Events are deduplicated by
// (node, ring sequence); node clock entries by name, keeping the one
// that saw the most events (the later scrape).
func Merge(traces ...ClusterTrace) ClusterTrace {
	var out ClusterTrace
	nodes := make(map[string]NodeClock)
	seen := make(map[string]map[uint64]bool)
	for _, t := range traces {
		for _, n := range t.Nodes {
			if prev, ok := nodes[n.Node]; !ok || n.Total > prev.Total {
				nodes[n.Node] = n
			}
		}
		for _, ev := range t.Events {
			m := seen[ev.Node]
			if m == nil {
				m = make(map[uint64]bool)
				seen[ev.Node] = m
			}
			if m[ev.Seq] {
				continue
			}
			m[ev.Seq] = true
			out.Events = append(out.Events, ev)
		}
	}
	for _, n := range nodes {
		out.Nodes = append(out.Nodes, n)
	}
	sortClusterTrace(&out)
	return out
}

// Encode renders the trace as deterministic indented JSON.
func (t ClusterTrace) Encode() []byte {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		panic("obs: cluster trace encode: " + err.Error())
	}
	return append(b, '\n')
}

// EncodeCanonical renders the trace with every scrape-dependent field
// zeroed (clock offsets, aligned times) and events in (node, seq)
// order, so two scrapes that observed the same events — however
// sharded or timed — encode byte-identically. Use Encode for the
// timeline view, EncodeCanonical for diffing.
func (t ClusterTrace) EncodeCanonical() []byte {
	c := ClusterTrace{
		Nodes:  append([]NodeClock(nil), t.Nodes...),
		Events: append([]ClusterEvent(nil), t.Events...),
	}
	for i := range c.Nodes {
		c.Nodes[i].OffsetNs = 0
	}
	for i := range c.Events {
		c.Events[i].AlignedNs = 0
	}
	sort.Slice(c.Events, func(i, j int) bool {
		a, b := &c.Events[i], &c.Events[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return c.Encode()
}

// DecodeClusterTrace parses a trace produced by Encode or
// EncodeCanonical.
func DecodeClusterTrace(data []byte) (ClusterTrace, error) {
	var t ClusterTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return ClusterTrace{}, err
	}
	return t, nil
}

// LinkReport summarizes cross-node causal linkage: how many distinct
// trace ids the trace holds and how many of them were observed on at
// least two different nodes (i.e. the router span and a node span are
// linked under one id).
type LinkReport struct {
	Traces   int     `json:"traces"`
	Linked   int     `json:"linked"`
	Fraction float64 `json:"fraction"`
}

// LinkReport computes the cross-node linkage summary.
func (t ClusterTrace) LinkReport() LinkReport {
	nodesByTID := make(map[string]map[string]bool)
	for _, ev := range t.Events {
		if ev.Trace == "" {
			continue
		}
		m := nodesByTID[ev.Trace]
		if m == nil {
			m = make(map[string]bool)
			nodesByTID[ev.Trace] = m
		}
		m[ev.Node] = true
	}
	rep := LinkReport{Traces: len(nodesByTID)}
	for _, nodes := range nodesByTID {
		if len(nodes) >= 2 {
			rep.Linked++
		}
	}
	if rep.Traces > 0 {
		rep.Fraction = float64(rep.Linked) / float64(rep.Traces)
	}
	return rep
}
