package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Metrics is the router's live accounting. Node-level counters (VM
// runs, HTM aborts, instance quarantines) stay in each backend's own
// serve registry; this layer counts what only the router can see:
// votes, masked replicas, failovers, replays, and the cluster-wide
// corruption/loss invariants. Like serve.Metrics it is a plain struct
// of metrics declared once in an obs.Registry.
type Metrics struct {
	reg *obs.Registry

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

// Snapshot is a typed, in-process read of some of the router
// registry's handles, for Go code that compares counts (the tests, and
// bench/, which reads seven of its fields). It is not a vocabulary:
// what leaves the process — the "stats" reply, the command-line
// dumps, /metrics — is the registry itself (Cluster.Stats,
// Cluster.WriteProm).
type Snapshot struct {
	Requests  uint64
	Responses uint64
	Failed    uint64
	Retries   uint64
	Reads     uint64
	Writes    uint64

	Votes uint64
	// DetectedCorruptions counts replica replies the voter masked for
	// disagreeing with the majority; DeliveredCorruptions is the
	// cluster invariant counter and must stay zero.
	DetectedCorruptions  uint64
	NoQuorum             uint64
	DeliveredCorruptions uint64

	AckedWrites    uint64
	ReplayedWrites uint64
	// LostAckedWrites is the second invariant counter (updated by
	// CheckInvariants): acknowledged writes with no surviving applied
	// copy. Must stay zero.
	LostAckedWrites uint64

	Failovers   uint64
	NodeKills   uint64
	Quarantines uint64
	Rebuilds    uint64

	NodeStates map[string]string // filled by Cluster.Metrics
	NodeFails  map[string]uint64
	NodeMasked map[string]uint64
}

// Snapshot captures the registry's counters.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
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
	}
}
