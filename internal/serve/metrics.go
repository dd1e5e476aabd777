package serve

import (
	"sync"
	"time"

	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Metrics is the serving layer's live accounting: every request,
// retry, quarantine, VM run, HTM abort and fault event lands here.
// It is a plain struct of metrics declared once, with name and help,
// in an obs.Registry; call sites update the handles directly.
type Metrics struct {
	reg *obs.Registry

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

// Snapshot is a typed, in-process read of some of the registry's
// handles, for Go code that compares counts (the tests, and bench/,
// which reads ten of its fields). It is not a vocabulary: what leaves
// the process — the "stats" reply, the command-line dumps, /metrics —
// is the registry itself (Server.Stats, Server.WriteProm).
type Snapshot struct {
	Requests  uint64
	Responses uint64
	Failed    uint64
	Rejected  uint64
	Retries   uint64

	Runs        uint64
	FaultedRuns uint64
	RunStatus   map[string]uint64
	Quarantines uint64
	Rebuilds    uint64
	// QuarantinedInstances is the number of instances currently
	// quarantined (rebuilt but not yet re-proven by a clean batch).
	QuarantinedInstances int

	ChaosEvents      map[string]uint64
	DeadlineFailures uint64

	InjectedFaults uint64
	// CorrectedFaults counts faults absorbed without failing the run
	// (HAFT rollbacks plus TMR vote corrections); VoteCorrections is
	// the TMR majority-vote share of that total.
	CorrectedFaults uint64
	VoteCorrections uint64
	// VerifyRejects counts corrupted replies the verifier caught and
	// converted into retries; CorruptedReplies counts corruptions
	// actually delivered (zero while verification is on).
	VerifyRejects    uint64
	CorruptedReplies uint64

	TxStarted   uint64
	TxCommitted uint64
	AbortCauses map[string]uint64

	// Seconds. The queue-wait / execution split of the same latencies:
	// the two components sum to the end-to-end figure per response.
	LatencyP50    float64
	LatencyP99    float64
	LatencyMean   float64
	QueueWaitP50  float64
	QueueWaitP99  float64
	QueueWaitMean float64
	ExecP50       float64
	ExecMean      float64

	QueueDepth int
	PoolSize   int
}

// Snapshot captures the current state of the registry.
func (m *Metrics) Snapshot() Snapshot {
	m.splitMu.Lock()
	lat, wait, exec := m.latency.Snapshot(), m.queueWait.Snapshot(), m.exec.Snapshot()
	m.splitMu.Unlock()
	return Snapshot{
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
		AbortCauses:          m.aborts.Values(),
		LatencyP50:           lat.Percentile(0.50),
		LatencyP99:           lat.Percentile(0.99),
		LatencyMean:          lat.Mean(),
		QueueWaitP50:         wait.Percentile(0.50),
		QueueWaitP99:         wait.Percentile(0.99),
		QueueWaitMean:        wait.Mean(),
		ExecP50:              exec.Percentile(0.50),
		ExecMean:             exec.Mean(),
		QueueDepth:           m.queueDepth(),
		PoolSize:             int(m.poolSize.Load()),
	}
}
