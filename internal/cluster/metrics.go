package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Metrics is the router's live accounting. Node-level counters (VM
// runs, HTM aborts, instance quarantines) stay in each backend's own
// serve registry; this layer counts what only the router can see:
// votes, masked replicas, failovers, replays, and the cluster-wide
// corruption/loss invariants. Like serve.Metrics it is a plain struct
// of metrics declared once in an obs.Registry.
type Metrics struct {
	reg   *obs.Registry
	start time.Time

	requests  *obs.Counter
	responses *obs.Counter
	failed    *obs.Counter
	retries   *obs.Counter
	reads     *obs.Counter
	writes    *obs.Counter

	// votes is the number of replica replies collected across all
	// voted requests; masked is the subset discarded for disagreeing
	// with the majority — each one a detected corruption that was
	// never delivered.
	votes    *obs.Counter
	masked   *obs.Counter
	noQuorum *obs.Counter
	// delivered corruptions the router itself observed (always zero by
	// construction — the voter cannot deliver a minority value; kept
	// as an explicit invariant counter like serve's corrupted_replies).
	corrupted *obs.Counter

	ackedWrites    *obs.Counter
	replayedWrites *obs.Counter
	lostAcked      *obs.Counter // stored by CheckInvariants

	failovers   *obs.Counter
	nodeKills   *obs.Counter
	quarantines *obs.Counter
	rebuilds    *obs.Counter

	nodeFails  *obs.CounterVec
	nodeMasked *obs.CounterVec
	nodeServed *obs.CounterVec

	latency *obs.Latency
	// fanoutWait is the time from a request's fan-out's first send to
	// its last reply (or its deadline); a replay's fan-outs are not
	// counted.
	fanoutWait *obs.Latency
}

// newMetrics declares the router's metrics. nodeStates reads the
// cluster's node state table (the router's nodes own their state; the
// registry only renders it).
func newMetrics(nodeStates func() map[string]string) *Metrics {
	reg := obs.NewRegistry()
	c := func(name, help string) *obs.Counter { return reg.Counter("haft_cluster_"+name, help) }
	byNode := func(name, help string) *obs.CounterVec {
		return reg.CounterVec("haft_cluster_"+name, help, "node")
	}
	m := &Metrics{
		reg:            reg,
		start:          time.Now(),
		requests:       c("requests_total", "requests routed"),
		responses:      c("responses_total", "responses delivered"),
		failed:         c("failed_total", "requests failed after retries"),
		retries:        c("retries_total", "request retries"),
		reads:          c("reads_total", "read requests"),
		writes:         c("writes_total", "write requests"),
		votes:          c("vote_replies_total", "replica replies collected by the voter"),
		masked:         c("detected_corruptions_total", "replica replies masked for disagreeing with the majority"),
		corrupted:      c("delivered_corruptions_total", "corrupted replies delivered (invariant: zero)"),
		noQuorum:       c("no_quorum_total", "voted requests that could not reach quorum"),
		ackedWrites:    c("acked_writes_total", "writes acknowledged at quorum"),
		replayedWrites: c("replayed_writes_total", "writes replayed into rebuilt replicas"),
		lostAcked:      c("lost_acked_writes_total", "acknowledged writes lost (invariant: zero)"),
		failovers:      c("failovers_total", "shard primary failovers"),
		nodeKills:      c("node_kills_total", "chaos node kills"),
		quarantines:    c("node_quarantines_total", "node quarantines"),
		rebuilds:       c("node_rebuilds_total", "node rebuilds (replay + readmission)"),
		nodeFails:      byNode("node_failures_total", "backend call failures by node"),
		nodeMasked:     byNode("node_masked_replies_total", "masked replies by node"),
		nodeServed:     byNode("node_served_total", "replica replies served by node"),
		latency:        reg.Latency("haft_cluster_latency", "request latency", ""),
		fanoutWait:     reg.Latency("haft_cluster_fanout_wait", "fan-out wait", " (first send to last reply)"),
	}
	reg.Histogram("haft_cluster_fanout_wait_seconds", "fan-out wait distribution", m.fanoutWait)
	// Node states as a 0/1 gauge per (node, state) pair.
	reg.GaugeFunc("haft_cluster_node_up", "node currently healthy (1) or not (0)",
		func(emit func(string, float64)) {
			for id, state := range nodeStates() {
				up := 0.0
				if state == "healthy" {
					up = 1
				}
				emit(fmt.Sprintf("node=%q,state=%q", id, state), up)
			}
		})
	return m
}

func (m *Metrics) request(write bool) {
	m.requests.Inc()
	if write {
		m.writes.Inc()
	} else {
		m.reads.Inc()
	}
}

func (m *Metrics) response(lat time.Duration) {
	m.responses.Inc()
	m.latency.Observe(lat)
}

func (m *Metrics) mask(nodeID string) {
	m.masked.Inc()
	m.nodeMasked.With(nodeID).Inc()
}

// Snapshot is a point-in-time export of the router registry.
type Snapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	Shards   int `json:"shards"`

	Requests  uint64 `json:"requests"`
	Responses uint64 `json:"responses"`
	Failed    uint64 `json:"failed"`
	Retries   uint64 `json:"retries"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`

	Votes uint64 `json:"vote_replies"`
	// DetectedCorruptions counts replica replies the voter masked for
	// disagreeing with the majority; DeliveredCorruptions is the
	// cluster invariant counter and must stay zero.
	DetectedCorruptions  uint64 `json:"detected_corruptions"`
	NoQuorum             uint64 `json:"no_quorum"`
	DeliveredCorruptions uint64 `json:"delivered_corruptions"`

	AckedWrites    uint64 `json:"acked_writes"`
	ReplayedWrites uint64 `json:"replayed_writes"`
	// LostAckedWrites is the second invariant counter (updated by
	// CheckInvariants): acknowledged writes with no surviving applied
	// copy. Must stay zero.
	LostAckedWrites uint64 `json:"lost_acked_writes"`

	Failovers   uint64 `json:"failovers"`
	NodeKills   uint64 `json:"node_kills"`
	Quarantines uint64 `json:"quarantines"`
	Rebuilds    uint64 `json:"rebuilds"`

	NodeStates map[string]string `json:"node_states"`
	NodeFails  map[string]uint64 `json:"node_failures"`
	NodeMasked map[string]uint64 `json:"node_masked_replies"`
	NodeServed map[string]uint64 `json:"node_served"`

	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyP50    float64 `json:"latency_p50_s"`
	LatencyP95    float64 `json:"latency_p95_s"`
	LatencyP99    float64 `json:"latency_p99_s"`
	LatencyMean   float64 `json:"latency_mean_s"`
	LatencyMax    float64 `json:"latency_max_s"`
	// FanoutWaitP50 and _P99 time a replica fan-out from its first send
	// to its last reply.
	FanoutWaitP50 float64 `json:"fanout_wait_p50_s"`
	FanoutWaitP99 float64 `json:"fanout_wait_p99_s"`
}

// Snapshot captures the registry (cluster shape fields and node states
// are filled by Cluster.Metrics).
func (m *Metrics) Snapshot() Snapshot {
	lat, fan := m.latency.Snapshot(), m.fanoutWait.Snapshot()
	s := Snapshot{
		ElapsedSeconds:       time.Since(m.start).Seconds(),
		Requests:             m.requests.Load(),
		Responses:            m.responses.Load(),
		Failed:               m.failed.Load(),
		Retries:              m.retries.Load(),
		Reads:                m.reads.Load(),
		Writes:               m.writes.Load(),
		Votes:                m.votes.Load(),
		DetectedCorruptions:  m.masked.Load(),
		NoQuorum:             m.noQuorum.Load(),
		DeliveredCorruptions: m.corrupted.Load(),
		AckedWrites:          m.ackedWrites.Load(),
		ReplayedWrites:       m.replayedWrites.Load(),
		LostAckedWrites:      m.lostAcked.Load(),
		Failovers:            m.failovers.Load(),
		NodeKills:            m.nodeKills.Load(),
		Quarantines:          m.quarantines.Load(),
		Rebuilds:             m.rebuilds.Load(),
		NodeFails:            m.nodeFails.Values(),
		NodeMasked:           m.nodeMasked.Values(),
		NodeServed:           m.nodeServed.Values(),
		LatencyP50:           lat.Percentile(0.50),
		LatencyP95:           lat.Percentile(0.95),
		LatencyP99:           lat.Percentile(0.99),
		LatencyMean:          lat.Mean(),
		LatencyMax:           lat.Max.Seconds(),
		FanoutWaitP50:        fan.Percentile(0.50),
		FanoutWaitP99:        fan.Percentile(0.99),
	}
	if s.ElapsedSeconds > 0 {
		s.ThroughputRPS = float64(s.Responses) / s.ElapsedSeconds
	}
	return s
}

// JSON renders the snapshot as one JSON object.
func (s Snapshot) JSON() []byte {
	b, _ := json.Marshal(s)
	return b
}

// Summary renders the snapshot as a human-readable report table.
func (s Snapshot) Summary() string {
	t := &report.Table{
		Title:  "cluster: router metrics",
		Header: []string{"metric", "value"},
	}
	t.AddF(1, "elapsed (s)", s.ElapsedSeconds)
	t.Add("nodes / replicas / shards", fmt.Sprintf("%d / %d / %d", s.Nodes, s.Replicas, s.Shards))
	t.AddF(0, "requests", s.Requests)
	t.AddF(0, "responses", s.Responses)
	t.AddF(0, "failed", s.Failed)
	t.AddF(0, "retries", s.Retries)
	t.Add("reads / writes", fmt.Sprintf("%d / %d", s.Reads, s.Writes))
	t.AddF(1, "throughput (req/s)", s.ThroughputRPS)
	t.Add("latency p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.LatencyP50*1e3, s.LatencyP95*1e3, s.LatencyP99*1e3))
	t.AddF(0, "vote replies collected", s.Votes)
	t.AddF(0, "detected corruptions (masked)", s.DetectedCorruptions)
	t.AddF(0, "delivered corruptions", s.DeliveredCorruptions)
	t.AddF(0, "vote quorum misses", s.NoQuorum)
	t.AddF(0, "acked writes", s.AckedWrites)
	t.AddF(0, "replayed writes", s.ReplayedWrites)
	t.AddF(0, "lost acked writes", s.LostAckedWrites)
	t.AddF(0, "failovers", s.Failovers)
	t.AddF(0, "node kills (chaos)", s.NodeKills)
	t.AddF(0, "node quarantines", s.Quarantines)
	t.AddF(0, "node rebuilds", s.Rebuilds)
	t.Add("node states", stateLine(s.NodeStates))
	return t.String()
}

func stateLine(m map[string]string) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("%s=%s", k, m[k])
	}
	return out
}
