package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/vm"
)

// Metrics is the serving layer's live accounting: every request,
// retry, quarantine, VM run, HTM abort and fault event lands here.
// It is a plain struct of metrics declared once, with name and help,
// in an obs.Registry; call sites update the handles directly.
type Metrics struct {
	reg   *obs.Registry
	start time.Time

	requests  *obs.Counter
	responses *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	retries   *obs.Counter

	runs        *obs.Counter
	faultedRuns *obs.Counter
	runStatus   *obs.CounterVec
	quarantines *obs.Counter
	rebuilds    *obs.Counter
	// quarantinedNow is the number of instances currently in the
	// quarantine/rebuild cycle (entered on a faulted batch, exited on
	// the first clean batch after rebuild).
	quarantinedNow *obs.Gauge
	chaos          *obs.CounterVec
	deadlines      *obs.Counter

	injected *obs.Counter
	// corrected counts faults absorbed without failing the run: HAFT
	// transaction rollbacks plus TMR majority-vote corrections.
	// voteCorrections is the TMR share of that total.
	corrected       *obs.Counter
	voteCorrections *obs.Counter
	// corrupted counts corrupted replies DELIVERED to clients; with
	// verification on, the serving layer's invariant is that this
	// stays zero (detections become verifyRejects and retries). With
	// verification off it is fed by the post-injection reply audit.
	corrupted     *obs.Counter
	verifyRejects *obs.Counter

	txStarted   *obs.Counter
	txCommitted *obs.Counter
	fallbacks   *obs.Counter
	aborts      *obs.CounterVec

	// queueWait and exec split each response's latency at the instant
	// its batch run started: queue wait (queueing + retry backoffs) and
	// execution (VM run + verification). splitMu makes the three
	// observations of one response, and a Snapshot's three copies,
	// atomic with respect to each other, so the components' means sum
	// exactly to the end-to-end mean.
	splitMu   sync.Mutex
	latency   *obs.Latency
	queueWait *obs.Latency
	exec      *obs.Latency

	poolSize   *obs.Gauge
	poolBusy   *obs.Gauge
	queueDepth func() int
}

func newMetrics(poolSize int, queueDepth func() int) *Metrics {
	reg := obs.NewRegistry()
	c := func(name, help string) *obs.Counter { return reg.Counter("haft_serve_"+name, help) }
	m := &Metrics{
		reg:             reg,
		start:           time.Now(),
		requests:        c("requests_total", "requests submitted"),
		responses:       c("responses_total", "responses delivered"),
		failed:          c("failed_total", "requests failed after retries"),
		rejected:        c("rejected_total", "requests rejected by backpressure"),
		retries:         c("retries_total", "request retries"),
		runs:            c("runs_total", "VM batch runs"),
		faultedRuns:     c("faulted_runs_total", "VM runs ending in a non-ok status"),
		runStatus:       reg.CounterVec("haft_serve_run_status_total", "VM runs by final status", "status"),
		quarantines:     c("quarantines_total", "instance quarantines"),
		rebuilds:        c("rebuilds_total", "instance machine rebuilds"),
		quarantinedNow:  reg.Gauge("haft_serve_quarantined_instances", "instances currently quarantined"),
		chaos:           reg.CounterVec("haft_serve_chaos_events_total", "chaos-layer events", "kind"),
		deadlines:       c("deadline_failures_total", "requests failed on deadline"),
		injected:        c("injected_faults_total", "SEU campaign injections"),
		corrected:       c("corrected_faults_total", "faults absorbed by tx rollback or TMR majority votes"),
		voteCorrections: c("vote_corrections_total", "faults corrected in place by TMR majority votes"),
		verifyRejects:   c("verify_rejects_total", "corrupted replies caught by verification"),
		corrupted:       c("corrupted_replies_total", "corrupted replies delivered"),
		txStarted:       c("tx_started_total", "hardware transactions started"),
		txCommitted:     c("tx_committed_total", "hardware transactions committed"),
		fallbacks:       c("fallback_runs_total", "non-transactional fallback runs"),
		aborts:          reg.CounterVec("haft_serve_tx_aborts_total", "transaction aborts by cause", "cause"),
		latency:         reg.Latency("haft_serve_latency", "request latency", ""),
		queueWait:       reg.Latency("haft_serve_queue_wait", "queue wait", " (queueing + retry backoffs)"),
		exec:            reg.Latency("haft_serve_exec", "execution time", " (VM run + verification)"),
		poolSize:        reg.Gauge("haft_serve_pool_size", "warm pool size"),
		poolBusy:        reg.Gauge("haft_serve_pool_busy", "pool instances currently running a batch"),
		queueDepth:      queueDepth,
	}
	reg.Histogram("haft_serve_latency_seconds", "request latency distribution", m.latency)
	m.poolSize.Store(int64(poolSize))
	reg.GaugeFunc("haft_serve_queue_depth", "requests waiting in the queue",
		func(emit func(string, float64)) { emit("", float64(queueDepth())) })
	return m
}

func (m *Metrics) response(latency, queueWait, exec time.Duration) {
	m.responses.Inc()
	m.splitMu.Lock()
	m.latency.Observe(latency)
	m.queueWait.Observe(queueWait)
	m.exec.Observe(exec)
	m.splitMu.Unlock()
}

// run folds one finished VM run's statistics into the registry.
func (m *Metrics) run(status vm.Status, st vm.RunStats, hs htm.Stats) {
	m.runs.Inc()
	m.runStatus.With(status.String()).Inc()
	if status != vm.StatusOK {
		m.faultedRuns.Inc()
	}
	m.corrected.Add(st.Recovered + st.CorrectedFaults)
	m.voteCorrections.Add(st.CorrectedFaults)
	m.txStarted.Add(hs.Started)
	m.txCommitted.Add(hs.Committed)
	m.fallbacks.Add(hs.FallbackRuns)
	for cause, n := range hs.Aborted {
		m.aborts.With(cause.String()).Add(n)
	}
}

// Snapshot is a point-in-time export of the registry, JSON-ready.
type Snapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	Requests  uint64 `json:"requests"`
	Responses uint64 `json:"responses"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Retries   uint64 `json:"retries"`

	Runs        uint64            `json:"vm_runs"`
	FaultedRuns uint64            `json:"faulted_runs"`
	RunStatus   map[string]uint64 `json:"run_status"`
	Quarantines uint64            `json:"quarantines"`
	Rebuilds    uint64            `json:"rebuilds"`
	// QuarantinedInstances is the number of instances currently
	// quarantined (rebuilt but not yet re-proven by a clean batch).
	QuarantinedInstances int `json:"quarantined_instances"`

	ChaosEvents      map[string]uint64 `json:"chaos_events"`
	DeadlineFailures uint64            `json:"deadline_failures"`

	InjectedFaults uint64 `json:"injected_faults"`
	// CorrectedFaults counts faults absorbed without failing the run
	// (HAFT rollbacks plus TMR vote corrections); VoteCorrections is
	// the TMR majority-vote share of that total.
	CorrectedFaults uint64 `json:"corrected_faults"`
	VoteCorrections uint64 `json:"vote_corrections"`
	// VerifyRejects counts corrupted replies the verifier caught and
	// converted into retries; CorruptedReplies counts corruptions
	// actually delivered (zero while verification is on).
	VerifyRejects    uint64 `json:"verify_rejects"`
	CorruptedReplies uint64 `json:"corrupted_replies"`

	TxStarted    uint64            `json:"tx_started"`
	TxCommitted  uint64            `json:"tx_committed"`
	FallbackRuns uint64            `json:"fallback_runs"`
	AbortCauses  map[string]uint64 `json:"abort_causes"`

	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyP50    float64 `json:"latency_p50_s"`
	LatencyP95    float64 `json:"latency_p95_s"`
	LatencyP99    float64 `json:"latency_p99_s"`
	LatencyMean   float64 `json:"latency_mean_s"`
	LatencyMax    float64 `json:"latency_max_s"`

	// The queue-wait / execution split of the same latencies (the two
	// components sum to the end-to-end figure per response).
	QueueWaitP50  float64 `json:"queue_wait_p50_s"`
	QueueWaitP95  float64 `json:"queue_wait_p95_s"`
	QueueWaitP99  float64 `json:"queue_wait_p99_s"`
	QueueWaitMean float64 `json:"queue_wait_mean_s"`
	ExecP50       float64 `json:"exec_p50_s"`
	ExecP95       float64 `json:"exec_p95_s"`
	ExecP99       float64 `json:"exec_p99_s"`
	ExecMean      float64 `json:"exec_mean_s"`

	QueueDepth int `json:"queue_depth"`
	PoolBusy   int `json:"pool_busy"`
	PoolSize   int `json:"pool_size"`
}

// Snapshot captures the current state of the registry.
func (m *Metrics) Snapshot() Snapshot {
	m.splitMu.Lock()
	lat, wait, exec := m.latency.Snapshot(), m.queueWait.Snapshot(), m.exec.Snapshot()
	m.splitMu.Unlock()
	s := Snapshot{
		ElapsedSeconds:       time.Since(m.start).Seconds(),
		Requests:             m.requests.Load(),
		Responses:            m.responses.Load(),
		Failed:               m.failed.Load(),
		Rejected:             m.rejected.Load(),
		Retries:              m.retries.Load(),
		Runs:                 m.runs.Load(),
		FaultedRuns:          m.faultedRuns.Load(),
		RunStatus:            m.runStatus.Values(),
		Quarantines:          m.quarantines.Load(),
		Rebuilds:             m.rebuilds.Load(),
		QuarantinedInstances: int(m.quarantinedNow.Load()),
		ChaosEvents:          m.chaos.Values(),
		DeadlineFailures:     m.deadlines.Load(),
		InjectedFaults:       m.injected.Load(),
		CorrectedFaults:      m.corrected.Load(),
		VoteCorrections:      m.voteCorrections.Load(),
		VerifyRejects:        m.verifyRejects.Load(),
		CorruptedReplies:     m.corrupted.Load(),
		TxStarted:            m.txStarted.Load(),
		TxCommitted:          m.txCommitted.Load(),
		FallbackRuns:         m.fallbacks.Load(),
		AbortCauses:          m.aborts.Values(),
		LatencyP50:           lat.Percentile(0.50),
		LatencyP95:           lat.Percentile(0.95),
		LatencyP99:           lat.Percentile(0.99),
		LatencyMean:          lat.Mean(),
		LatencyMax:           lat.Max.Seconds(),
		QueueWaitP50:         wait.Percentile(0.50),
		QueueWaitP95:         wait.Percentile(0.95),
		QueueWaitP99:         wait.Percentile(0.99),
		QueueWaitMean:        wait.Mean(),
		ExecP50:              exec.Percentile(0.50),
		ExecP95:              exec.Percentile(0.95),
		ExecP99:              exec.Percentile(0.99),
		ExecMean:             exec.Mean(),
		QueueDepth:           m.queueDepth(),
		PoolBusy:             int(m.poolBusy.Load()),
		PoolSize:             int(m.poolSize.Load()),
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
		Title:  "serve: request-serving metrics",
		Header: []string{"metric", "value"},
	}
	t.AddF(1, "elapsed (s)", s.ElapsedSeconds)
	t.AddF(0, "requests", s.Requests)
	t.AddF(0, "responses", s.Responses)
	t.AddF(0, "failed", s.Failed)
	t.AddF(0, "rejected (backpressure)", s.Rejected)
	t.AddF(1, "throughput (req/s)", s.ThroughputRPS)
	t.Add("latency p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.LatencyP50*1e3, s.LatencyP95*1e3, s.LatencyP99*1e3))
	t.AddF(3, "latency mean (ms)", s.LatencyMean*1e3)
	t.Add("queue wait p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.QueueWaitP50*1e3, s.QueueWaitP95*1e3, s.QueueWaitP99*1e3))
	t.Add("exec p50/p95/p99 (ms)", fmt.Sprintf("%.3f / %.3f / %.3f",
		s.ExecP50*1e3, s.ExecP95*1e3, s.ExecP99*1e3))
	t.AddF(0, "vm runs", s.Runs)
	t.AddF(0, "faulted runs", s.FaultedRuns)
	t.Add("run status", mapLine(s.RunStatus))
	t.AddF(0, "retries", s.Retries)
	t.AddF(0, "quarantines", s.Quarantines)
	t.AddF(0, "instance rebuilds", s.Rebuilds)
	t.AddF(0, "quarantined now", s.QuarantinedInstances)
	t.Add("chaos events", mapLine(s.ChaosEvents))
	t.AddF(0, "deadline failures", s.DeadlineFailures)
	t.AddF(0, "injected faults (SEU)", s.InjectedFaults)
	t.AddF(0, "corrected faults (rollback + votes)", s.CorrectedFaults)
	t.AddF(0, "vote corrections (tmr)", s.VoteCorrections)
	t.AddF(0, "verification rejects (caught SDCs)", s.VerifyRejects)
	t.AddF(0, "corrupted replies", s.CorruptedReplies)
	t.AddF(0, "transactions started", s.TxStarted)
	t.AddF(0, "transactions committed", s.TxCommitted)
	t.AddF(0, "fallback runs", s.FallbackRuns)
	t.Add("abort causes", mapLine(s.AbortCauses))
	t.AddF(0, "queue depth", s.QueueDepth)
	t.Add("pool occupancy", fmt.Sprintf("%d/%d", s.PoolBusy, s.PoolSize))
	return t.String()
}

func mapLine(m map[string]uint64) string {
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
		out += fmt.Sprintf("%s=%d", k, m[k])
	}
	return out
}
