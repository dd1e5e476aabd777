// Package serve is the hardened request-serving layer: it keeps a warm
// pool of HAFT-hardened VM instances, dispatches key-value requests
// from a bounded queue across the pool with backpressure, and applies
// a fault-aware execution policy in front of the paper's machinery —
// the live-traffic counterpart of the batch-oriented §6.1 case study.
//
// Execution policy:
//
//   - each pool instance is one vm.Machine built from the hardened KV
//     server program (internal/workloads.KVServe) and reused across
//     batches via Machine.Reset — no per-request compile or clone;
//   - requests are gathered into batches of up to Config.Batch and one
//     batch is one machine run, with per-request transactions inside;
//     a point request, or a scan of at most Config.Batch keys, that
//     finds the queue empty and an instance idle runs as one batch on
//     the caller's goroutine;
//   - a run that ends in any non-ok status (ILR detected a fault that
//     recovery did not absorb, the "OS" killed the program, or the run
//     hung) fails no requests: every request of the batch is retried,
//     with exponential backoff, preferring a different instance than
//     the one that faulted — up to Config.MaxRetries times;
//   - an instance whose runs fault repeatedly is quarantined: its
//     machine is discarded and rebuilt from the hardened module before
//     it may serve again;
//   - an optional SEU campaign (Config.SEURate) arms the §4.2 fault
//     injector on a sampled fraction of runs, so the retry and
//     quarantine paths are exercised by real single-event upsets.
//
// Every request is accounted in a Metrics registry (throughput,
// latency percentiles, queue depth, pool occupancy, HTM abort causes,
// corrected/uncorrected fault counts), exportable as JSON and as a
// report table.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Config parameterizes a Server.
type Config struct {
	// Pool is the number of warm VM instances (and of the worker
	// goroutines that run queued batches on them).
	Pool int
	// QueueDepth bounds the request queue, in entries (a point request,
	// or up to Batch keys of one scan); a full queue pushes back on
	// submitters (Do waits for room; a Ticket.Wait gives up at its
	// deadline).
	QueueDepth int
	// Batch is the maximum number of requests executed in one machine
	// run.
	Batch int
	// MaxRetries bounds how many times one request is re-executed
	// after faulted runs before it is failed.
	MaxRetries int
	// RetryBackoff is the base delay before a faulted batch re-enters
	// the queue; it doubles per retry.
	RetryBackoff time.Duration
	// QuarantineAfter is the number of consecutive faulted runs after
	// which an instance is quarantined and rebuilt.
	QuarantineAfter int
	// Harden selects the hardening pipeline for the serving program
	// (default: full HAFT). Mode TMR serves from a triple-modular-
	// redundant build whose majority votes correct faults in place —
	// no transactions, no aborts — and feeds the vote-corrections
	// counter instead of the rollback path.
	Harden core.Config
	// KV parameterizes the serving program (key range, value work,
	// batch buffer capacity — raised to Batch automatically).
	KV workloads.KVServeConfig
	// SEURate is the expected number of injected single-event upsets
	// per request (0 disables the campaign). Faults are injected by
	// arming the §4.2 fault plan on sampled runs.
	SEURate float64
	// Chaos layers adversarial instance failures (kills, hangs, SEU
	// storms) on top of the SEU campaign.
	Chaos ChaosConfig
	// Deadline, if positive, bounds end-to-end request latency: a
	// request still unserved when it expires fails with ErrDeadline
	// instead of retrying indefinitely (per-request watchdog).
	Deadline time.Duration
	// Verify checks every reply against the host-side reference
	// function and counts mismatches as corrupted replies.
	Verify bool
	// Seed feeds the injection RNGs.
	Seed int64
	// TraceDepth sizes the observability ring buffer (events
	// retained; default 8192). The tracer is always on — it is
	// lock-free and bounded — and feeds the /trace debug endpoint.
	TraceDepth int
	// Node names this server in raw trace scrapes and flight-recorder
	// bundles (default "serve").
	Node string
	// FlightDir, when set, makes the flight recorder write each
	// forensic bundle as a JSON file there (it always keeps the most
	// recent FlightMax bundles in memory regardless).
	FlightDir string
	// FlightMax bounds the in-memory flight bundles (default 64).
	FlightMax int
}

// ChaosConfig parameterizes the chaos layer: per-batch-run
// probabilities of adversarial instance failures. All events are
// drawn from a dedicated per-instance RNG, so enabling chaos does not
// perturb the SEURate sampling sequence.
type ChaosConfig struct {
	// KillRate is the probability per batch run that the instance is
	// killed outright: its machine is discarded and rebuilt, the whole
	// batch re-enters the retry path on other instances.
	KillRate float64
	// HangRate is the probability per batch run that the instance
	// wedges: its dynamic-instruction budget is cut so the run
	// exhausts it and is classified as hung (OutcomeHang's serving
	// analogue), exercising the hang-detection watchdog.
	HangRate float64
	// StormRate is the probability per batch run of an SEU storm:
	// StormSize independent register upsets armed at once.
	StormRate float64
	// StormSize is the number of simultaneous upsets per storm
	// (default 4).
	StormSize int
}

func (c ChaosConfig) active() bool {
	return c.KillRate > 0 || c.HangRate > 0 || c.StormRate > 0
}

// DefaultConfig returns the standard serving configuration: 8 warm
// HAFT instances, batches of 32, 3 retries, quarantine after 3
// consecutive faulted runs, verification on.
func DefaultConfig() Config {
	return Config{
		Pool:            8,
		QueueDepth:      1024,
		Batch:           32,
		MaxRetries:      3,
		RetryBackoff:    200 * time.Microsecond,
		QuarantineAfter: 3,
		Harden:          core.DefaultConfig(),
		KV:              workloads.DefaultKVServeConfig(),
		Verify:          true,
		Seed:            1,
	}
}

// Request is one key-value operation. TraceID, when nonzero,
// correlates the request's obs events (queue, exec, response, retries,
// forensics) across the whole stack; the cluster router mints one for
// untagged requests.
type Request struct {
	Write   bool
	Key     uint64
	Value   uint64
	TraceID uint64
}

// ErrOverloaded is returned by Ticket.Wait when the queue had no room
// for the request before its deadline.
var ErrOverloaded = errors.New("serve: queue full")

// ErrClosed is returned for requests submitted to a closed server.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadline is returned for requests that exceeded Config.Deadline.
var ErrDeadline = errors.New("serve: request deadline exceeded")

// item is one queued request with its completion channel.
type item struct {
	id       uint64 // request id, for event correlation
	tid      uint64 // trace id (0: untraced)
	word     uint64
	retries  int
	exclude  int // instance id that last faulted on it (-1: none)
	enqueued time.Time
	done     chan result
}

type result struct {
	val uint64
	err error
}

// instance is one warm VM in the pool. Whoever took it out of the idle
// set — a worker, or Do on the caller's goroutine — has it to itself.
type instance struct {
	id        int
	mach      *vm.Machine
	reqsAddr  uint64
	nreqAddr  uint64
	replyAddr uint64
	rng       *rand.Rand
	// chaosRng drives the chaos layer independently of the SEU
	// sampling sequence.
	chaosRng   *rand.Rand
	generation int
	// consecutiveFaults drives the quarantine policy.
	consecutiveFaults int
	usedSinceReset    bool
	// inQuarantine is true from the rebuild until the instance's next
	// clean (ok, fully-verified) run — the span the
	// serve_quarantined_instances gauge counts.
	inQuarantine bool

	// The buffers of a run, Batch long, reused by every run: request
	// words, replies, and the verified items and replies it delivers.
	words, replies, vals []uint64
	delivered            []*item
	// spare carries the requests of an inline run, Batch items reused
	// with their reply channels; a nil slot is made again when a run
	// needs it. An inline run a retry outlived leaves its items to the
	// retry and the instance a new, empty set.
	spare []*item
}

// Server is the request-serving layer.
type Server struct {
	cfg  Config
	mod  moduleSource
	prog *workloads.Program
	// queue carries entries: the items of one entry run in one batch. A
	// point request or a retry is an entry of one, a scan admits up to
	// Batch keys per entry.
	queue chan []*item
	// idle holds the instances no run is using, Pool of them when the
	// server is quiet. A channel send hands an instance to a worker
	// already waiting for one before Do can take it.
	idle chan *instance
	// specs starts the serving program's one thread.
	specs   []vm.ThreadSpec
	metrics *Metrics
	ring    *obs.Ring
	flight  *obs.FlightRecorder
	// progHash fingerprints the hardened module (fnv64a over its
	// printed form) so a flight bundle can prove replay ran the same
	// program.
	progHash uint64
	reqID    atomic.Uint64
	closed   chan struct{}
	once     sync.Once
	wg       sync.WaitGroup

	// draining rejects new submissions while Shutdown waits for the
	// already-admitted requests (outstanding) to complete.
	draining    atomic.Bool
	outstanding atomic.Int64
	lmu         sync.Mutex
	listeners   []net.Listener

	// perReqWrites estimates the register-write population of one
	// request (calibrated at startup) for uniform SEU targeting.
	perReqWrites uint64
	// runBudget bounds a batch run's dynamic instructions so hung runs
	// are detected quickly.
	runBudget uint64
}

// moduleSource builds fresh machines (instance rebuilds after
// quarantine). Every machine shares the one precompiled program — an
// instance rebuild costs a Machine allocation, not a module clone and
// re-lowering.
type moduleSource struct {
	prog  *workloads.Program
	cprog *vm.Program
	cfg   vm.Config
}

func (ms moduleSource) newMachine(seedBump int64) *vm.Machine {
	cfg := ms.cfg
	cfg.HTM.Seed += seedBump
	return vm.NewFromProgram(ms.cprog, 1, cfg)
}

// NewServer hardens the KV serving program, calibrates the fault
// injector, and starts the warm pool.
func NewServer(cfg Config) (*Server, error) {
	d := DefaultConfig()
	if cfg.Pool <= 0 {
		cfg.Pool = d.Pool
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = d.QueueDepth
	}
	if cfg.Batch <= 0 {
		cfg.Batch = d.Batch
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = d.RetryBackoff
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = d.QuarantineAfter
	}
	if cfg.Harden.Mode == 0 && cfg.Harden.TxThreshold == 0 {
		cfg.Harden = d.Harden
	}
	if cfg.KV.MaxBatch < cfg.Batch {
		cfg.KV.MaxBatch = cfg.Batch
	}
	if cfg.KV.Records <= 0 {
		cfg.KV.Records = d.KV.Records
	}
	if cfg.KV.ValueWork <= 0 {
		cfg.KV.ValueWork = d.KV.ValueWork
	}

	prog := workloads.KVServe(cfg.KV)
	hcfg := cfg.Harden
	if hcfg.TxThreshold == 0 {
		hcfg.TxThreshold = prog.TxThreshold
	}
	if hcfg.Blacklist == nil {
		hcfg.Blacklist = prog.Blacklist
	}
	mod, err := core.Harden(prog.Module, hcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: harden: %w", err)
	}
	hp := *prog
	hp.Module = mod

	if cfg.TraceDepth <= 0 {
		cfg.TraceDepth = 8192
	}
	if cfg.Node == "" {
		cfg.Node = "serve"
	}
	s := &Server{
		cfg:      cfg,
		prog:     &hp,
		ring:     obs.NewRing(cfg.TraceDepth),
		flight:   obs.NewFlightRecorder(cfg.Node, cfg.FlightDir, cfg.FlightMax),
		progHash: hashModule(mod),
		closed:   make(chan struct{}),
	}
	s.mod = moduleSource{prog: &hp, cprog: vm.SharedPrograms.Get(hp.Module), cfg: vm.DefaultConfig()}
	s.queue = make(chan []*item, cfg.QueueDepth)
	s.idle = make(chan *instance, cfg.Pool)
	s.specs = hp.SpecsFor(1)
	s.metrics = newMetrics(cfg.Pool, func() int { return len(s.queue) })

	if err := s.calibrate(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// hashModule fingerprints a module by its printed form: stable across
// processes, sensitive to any instruction difference.
func hashModule(m *ir.Module) uint64 {
	h := fnv.New64a()
	io.WriteString(h, m.String())
	return h.Sum64()
}

// calibrate runs one full fault-free batch to measure the per-request
// register-write population (the SEU target space) and the dynamic
// instruction budget for hang detection.
func (s *Server) calibrate() error {
	inst := s.newInstance(-1)
	words := make([]uint64, s.cfg.Batch)
	for i := range words {
		words[i] = workloads.KVRequestWord(i%2 == 0, uint64(i%s.cfg.KV.Records), uint64(i))
	}
	s.pokeBatch(inst, words)
	if st := inst.mach.Run(s.specs...); st != vm.StatusOK {
		return fmt.Errorf("serve: calibration run failed: %v (%s)",
			st, inst.mach.Stats().CrashReason)
	}
	stats := inst.mach.Stats()
	s.perReqWrites = stats.RegWrites/uint64(len(words)) + 1
	s.runBudget = stats.DynInstrs*10 + 100_000
	return nil
}

// newInstance builds a warm VM instance. id -1 marks the calibration
// scratch instance.
func (s *Server) newInstance(id int) *instance {
	mach := s.mod.newMachine(int64(id) + 1)
	if s.runBudget > 0 { // still 0 during the calibration run
		mach.Cfg.MaxDynInstrs = s.runBudget
	}
	// All pool machines share the server's ring; actor ids are offset
	// per instance so VM-domain events stay distinguishable.
	mach.SetObsRing(s.ring)
	mach.SetObsActorBase(int32(id+1) * 16)
	n := s.cfg.Batch
	return &instance{
		id:        id,
		mach:      mach,
		reqsAddr:  mach.Mod.Global(workloads.KVReqsGlobal).Addr,
		nreqAddr:  mach.Mod.Global(workloads.KVNReqGlobal).Addr,
		replyAddr: mach.Mod.Global(workloads.KVRepliesGlobal).Addr,
		rng:       rand.New(rand.NewSource(s.cfg.Seed + int64(id)*7919)),
		chaosRng:  rand.New(rand.NewSource(s.cfg.Seed ^ 0x5eed + int64(id)*104729)),
		words:     make([]uint64, 0, n),
		replies:   make([]uint64, 0, n),
		vals:      make([]uint64, 0, n),
		delivered: make([]*item, 0, n),
		spare:     make([]*item, n),
	}
}

// rebuild discards a quarantined instance's machine and constructs a
// fresh one (new memory image, new HTM seed lineage).
func (inst *instance) rebuild(s *Server) {
	inst.generation++
	s.metrics.rebuilds.Inc()
	fresh := s.mod.newMachine(int64(inst.id) + 1 + int64(inst.generation)*104729)
	fresh.Cfg.MaxDynInstrs = s.runBudget
	fresh.SetObsRing(s.ring)
	fresh.SetObsActorBase(int32(inst.id+1) * 16)
	inst.mach = fresh
	inst.consecutiveFaults = 0
	inst.usedSinceReset = false
	// The instance is quarantined until its next clean run; the gauge
	// and the enter/exit events let the router's health checker and
	// /metrics agree on node state.
	if !inst.inQuarantine {
		inst.inQuarantine = true
		s.metrics.quarantinedNow.Add(1)
	}
	s.event(obs.Event{Kind: obs.KindQuarantine, Actor: int32(inst.id),
		A: uint64(inst.generation), Label: "enter"})
}

// event emits a wall-domain serving-layer event into the ring,
// stamping the ring clock.
func (s *Server) event(ev obs.Event) {
	ev.Domain = obs.DomainWall
	ev.Time = s.ring.Now()
	s.ring.Emit(ev)
}

func (s *Server) pokeBatch(inst *instance, words []uint64) {
	for i, w := range words {
		inst.mach.Poke(inst.reqsAddr+uint64(i)*8, w)
	}
	inst.mach.Poke(inst.nreqAddr, uint64(len(words)))
}

// worker builds one instance into the idle set, then serves queued
// entries until shutdown: it takes an entry off the queue, then an idle
// instance, and runs batches on it. held is an entry that did not fit
// the last batch: it opens the next one, and the worker keeps the
// instance until it has run it, so nothing overtakes it.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	s.idle <- s.newInstance(id)
	batch := make([]*item, 0, s.cfg.Batch)
	for {
		var held []*item
		select {
		case <-s.closed:
			return
		case held = <-s.queue:
		}
		select {
		case <-s.closed:
			s.fail(held, ErrClosed)
			return
		case inst := <-s.idle:
			for held != nil && !s.isClosed() {
				if batch, held = s.gather(batch, held, inst.id); len(batch) > 0 {
					s.runBatch(inst, batch)
				}
			}
			s.idle <- inst
			if held != nil {
				s.fail(held, ErrClosed)
				return
			}
		}
	}
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// gather assembles a batch in buf's array: the first entry plus
// whatever else is immediately available, up to the batch bound. An
// entry is never split: one that does not fit the remaining room ends
// the batch and is returned as held (nothing overtakes it on this
// worker). A retried item excluded from this instance (it faulted here
// last time) is pushed back so a different instance picks it up.
func (s *Server) gather(buf, entry []*item, id int) (batch, held []*item) {
	batch = buf[:0]
	for {
		switch {
		case len(entry) == 1 && entry[0].exclude == id && s.cfg.Pool > 1:
			entry[0].exclude = -1 // give way once, accept anywhere after
			s.requeue(entry, 0)
		case len(batch)+len(entry) > s.cfg.Batch:
			return batch, entry
		default:
			batch = append(batch, entry...)
		}
		if len(batch) == s.cfg.Batch {
			return batch, nil
		}
		select {
		case entry = <-s.queue:
		default:
			return batch, nil
		}
	}
}

// finish delivers a request's result and retires it from the
// outstanding count the drain path waits on.
func (s *Server) finish(it *item, r result) {
	it.done <- r
	s.outstanding.Add(-1)
}

// fail finishes every item of an entry with err.
func (s *Server) fail(entry []*item, err error) {
	for _, it := range entry {
		s.finish(it, result{err: err})
	}
}

// requeue re-submits an entry after a delay without blocking a worker.
func (s *Server) requeue(entry []*item, delay time.Duration) {
	push := func() {
		select {
		case s.queue <- entry:
		case <-s.closed:
			s.fail(entry, ErrClosed)
		}
	}
	if delay <= 0 {
		// Fast path: try inline, fall back to a goroutine so a full
		// queue cannot deadlock the worker that is requeueing.
		select {
		case s.queue <- entry:
		default:
			go push()
		}
		return
	}
	time.AfterFunc(delay, push)
}

// runBatch executes one batch on the instance and applies the
// fault-aware policy to the outcome.
func (s *Server) runBatch(inst *instance, batch []*item) {
	s.metrics.poolBusy.Add(1)
	defer s.metrics.poolBusy.Add(-1)

	if inst.usedSinceReset {
		inst.mach.Reset()
	}
	inst.usedSinceReset = true

	words := inst.words[:0]
	for _, it := range batch {
		words = append(words, it.word)
	}
	s.pokeBatch(inst, words)

	// Chaos layer: adversarial instance failures drawn from a
	// dedicated RNG so they do not perturb SEU sampling.
	// armed collects this run's fault plans so a detection can bundle
	// the exact injection for forensic replay.
	var armed []*vm.FaultPlan
	storm := false
	if c := s.cfg.Chaos; c.active() {
		r := inst.chaosRng.Float64()
		if r < c.KillRate+c.HangRate+c.StormRate {
			kind := "storm"
			switch {
			case r < c.KillRate:
				kind = "kill"
			case r < c.KillRate+c.HangRate:
				kind = "hang"
			}
			s.event(obs.Event{Kind: obs.KindChaos, Actor: int32(inst.id), Label: kind})
		}
		switch {
		case r < c.KillRate:
			// Instance dies mid-traffic: no run, no replies; the batch
			// re-enters the retry path and the machine is rebuilt from
			// the hardened module.
			s.metrics.chaos.With("kill").Inc()
			inst.rebuild(s)
			s.failOrRetry(inst, batch, fmt.Errorf("instance killed"))
			return
		case r < c.KillRate+c.HangRate:
			// Wedge the run: a tiny dynamic-instruction budget makes
			// it exhaust and be classified as hung, which the normal
			// watchdog path must absorb.
			s.metrics.chaos.With("hang").Inc()
			inst.mach.Cfg.MaxDynInstrs = 64
		case r < c.KillRate+c.HangRate+c.StormRate:
			// SEU storm: several simultaneous upsets in one run.
			n := c.StormSize
			if n <= 0 {
				n = 4
			}
			pop := int64(s.perReqWrites * uint64(len(batch)))
			plans := make([]*vm.FaultPlan, n)
			for i := range plans {
				plans[i] = &vm.FaultPlan{
					TargetIndex: uint64(inst.chaosRng.Int63n(pop)),
					Mask:        randMask(inst.chaosRng),
				}
			}
			inst.mach.SetFaultPlans(plans)
			armed = plans
			s.metrics.chaos.With("storm").Inc()
			storm = true
		}
	}

	// SEU campaign: arm the §4.2 injector on a sampled fraction of
	// runs, uniformly across the batch's expected dynamic register
	// writes. A storm already armed this run's plans.
	if p := s.cfg.SEURate * float64(len(batch)); !storm && p > 0 && inst.rng.Float64() < p {
		pop := int64(s.perReqWrites * uint64(len(batch)))
		plan := &vm.FaultPlan{
			TargetIndex: uint64(inst.rng.Int63n(pop)),
			Mask:        randMask(inst.rng),
		}
		inst.mach.SetFaultPlan(plan)
		armed = []*vm.FaultPlan{plan}
		s.metrics.injected.Inc()
	}

	// The run starts now: everything before this instant was queueing
	// (including retry backoffs), everything after is execution.
	runStart := time.Now()
	for _, it := range batch {
		s.event(obs.Event{Kind: obs.KindExec, Actor: int32(inst.id),
			A: it.id, TraceID: it.tid})
	}
	// Snapshot the machine configuration that governs THIS run (a
	// chaos hang cuts the budget; rebuilds advance the HTM seed
	// lineage) so a flight bundle replays the run as it actually was.
	runBudget := inst.mach.Cfg.MaxDynInstrs
	htmSeed := inst.mach.Cfg.HTM.Seed
	status := inst.mach.Run(s.specs...)
	runStats := inst.mach.Stats()
	s.metrics.run(status, runStats, inst.mach.HTM.Stats)
	// Undo a chaos hang's budget cut (rebuild also restores it).
	inst.mach.Cfg.MaxDynInstrs = s.runBudget

	if status != vm.StatusOK {
		// Detected-but-uncorrected fault (ILR fail-stop, OS kill, or
		// hang): no reply from this run is trusted. Retry every
		// request on a different instance, with backoff; quarantine
		// the instance if it keeps faulting.
		s.recordFlight(status.String(), runStats.CrashReason, inst, batch,
			nil, nil, status, armed, runBudget, htmSeed)
		inst.consecutiveFaults++
		if inst.consecutiveFaults >= s.cfg.QuarantineAfter {
			s.metrics.quarantines.Inc()
			inst.rebuild(s)
		}
		s.failOrRetry(inst, batch, fmt.Errorf("last run: %v", status))
		return
	}

	replies := inst.replies[:0]
	for i := range batch {
		replies = append(replies, inst.mach.Peek(inst.replyAddr+uint64(i)*8))
	}

	if runStats.CorrectedFaults > 0 {
		// A TMR majority vote corrected a replica in place: the run is
		// clean but a corruption was detected — worth a dossier.
		s.recordFlight("tmr-corrected", "", inst, batch,
			replies, nil, status, armed, runBudget, htmSeed)
	}

	// Host-side verification: an SDC that slipped past ILR (a storm
	// can corrupt master and shadow flows alike) is caught here and
	// NEVER delivered — the rejected request re-enters the retry path
	// on another instance and this instance counts a fault toward
	// quarantine. Clients therefore see correct replies or loud
	// errors, nothing in between.
	deliverItems, deliverVals := batch, replies
	var rejected []*item
	badSum := false
	if s.cfg.Verify {
		if out := inst.mach.Output(); len(out) != 1 || out[0] != workloads.KVReplyChecksum(replies) {
			badSum = true
		}
		deliverItems, deliverVals = inst.delivered[:0], inst.vals[:0]
		for i, it := range batch {
			if replies[i] != workloads.KVReference(it.word, s.cfg.KV.ValueWork) {
				rejected = append(rejected, it)
				continue
			}
			deliverItems = append(deliverItems, it)
			deliverVals = append(deliverVals, replies[i])
		}
	}
	if !s.cfg.Verify && anyInjected(armed) {
		// Verification is off but a fault plan actually fired: audit
		// the replies against the host reference for accounting and
		// forensics (delivery below is unchanged — whatever defense the
		// pool has, votes or nothing, stands on its own). A mismatch
		// here is an SDC in flight — a corrupted reply this node
		// delivers, exactly the case the cluster voter masks.
		expected := make([]uint64, len(batch))
		sdc := uint64(0)
		for i, it := range batch {
			expected[i] = workloads.KVReference(it.word, s.cfg.KV.ValueWork)
			if replies[i] != expected[i] {
				sdc++
			}
		}
		if sdc > 0 {
			s.metrics.corrupted.Add(sdc)
			s.recordFlight("sdc-audit", "", inst, batch,
				replies, expected, status, armed, runBudget, htmSeed)
		}
	}
	if len(rejected) > 0 || badSum {
		n := len(rejected)
		if n == 0 {
			n = 1 // checksum-only mismatch: per-reply checks all passed
		}
		var tid uint64
		if len(rejected) > 0 {
			tid = rejected[0].tid
		}
		s.metrics.verifyRejects.Add(uint64(n))
		s.event(obs.Event{Kind: obs.KindVerifyReject, Actor: int32(inst.id),
			A: uint64(n), TraceID: tid})
		s.recordFlight("verify-reject", "", inst, batch,
			replies, nil, status, armed, runBudget, htmSeed)
		inst.consecutiveFaults++
		if inst.consecutiveFaults >= s.cfg.QuarantineAfter {
			s.metrics.quarantines.Inc()
			inst.rebuild(s)
		}
		s.failOrRetry(inst, rejected, fmt.Errorf("reply failed verification"))
	} else {
		inst.consecutiveFaults = 0
		if inst.inQuarantine {
			// First clean, fully-verified run after a rebuild: the
			// instance leaves quarantine.
			inst.inQuarantine = false
			s.metrics.quarantinedNow.Add(-1)
			s.event(obs.Event{Kind: obs.KindQuarantine, Actor: int32(inst.id),
				A: uint64(inst.generation), Label: "exit"})
		}
	}
	now := time.Now()
	exec := now.Sub(runStart)
	for i, it := range deliverItems {
		lat := now.Sub(it.enqueued)
		// Split the end-to-end latency at the instant the batch run
		// started: queue wait covers queueing and retry backoffs, exec
		// covers the VM run plus verification. The two sum to lat.
		s.metrics.response(lat, lat-exec, exec)
		s.event(obs.Event{Kind: obs.KindResponse, Actor: int32(inst.id),
			A: it.id, B: uint64(lat), TraceID: it.tid})
		s.finish(it, result{val: deliverVals[i]})
	}
}

func anyInjected(plans []*vm.FaultPlan) bool {
	for _, p := range plans {
		if p.Injected {
			return true
		}
	}
	return false
}

// recordFlight captures a forensic bundle around a detected
// corruption: the batch's requests and trace ids, the armed fault
// plans, the exact machine configuration of the run, and the ring
// window — everything the replay localizer needs. Bounded and
// fire-and-forget: recording never fails the serving path.
func (s *Server) recordFlight(kind, cause string, inst *instance, batch []*item,
	replies, expected []uint64, status vm.Status, armed []*vm.FaultPlan,
	runBudget uint64, htmSeed int64) {
	b := &obs.FlightBundle{
		Kind:        kind,
		Cause:       cause,
		Status:      status.String(),
		ProgramHash: obs.HexWord(s.progHash),
		Mode:        s.cfg.Harden.Mode.String(),
		OptLevel:    s.cfg.Harden.Opt.String(),
		HardenFlags: map[string]bool{
			"optimize": s.cfg.Harden.Optimize,
			"copyprop": s.cfg.Harden.CopyProp,
			"rce":      s.cfg.Harden.ReduceChecks,
			"coalesce": s.cfg.Harden.CoalesceChecks,
			"relax":    s.cfg.Harden.RelaxTX,
		},
		TxThreshold:  s.cfg.Harden.TxThreshold,
		HTMSeed:      htmSeed,
		MaxDynInstrs: runBudget,
		Records:      s.cfg.KV.Records,
		ValueWork:    s.cfg.KV.ValueWork,
		MaxBatch:     s.cfg.KV.MaxBatch,
	}
	for _, it := range batch {
		b.RequestIDs = append(b.RequestIDs, it.id)
		b.Requests = append(b.Requests, obs.HexWord(it.word))
		b.Traces = append(b.Traces, obs.HexWord(it.tid))
		if b.Trace == "" && it.tid != 0 {
			b.Trace = obs.HexWord(it.tid)
		}
	}
	for _, v := range replies {
		b.Replies = append(b.Replies, obs.HexWord(v))
	}
	for _, v := range expected {
		b.Expected = append(b.Expected, obs.HexWord(v))
	}
	for _, p := range armed {
		b.Faults = append(b.Faults, obs.FaultRecord{
			Model:       p.Model.String(),
			Flow:        p.Flow.String(),
			TargetIndex: p.TargetIndex,
			Mask:        obs.HexWord(p.Mask),
			Injected:    p.Injected,
			Where:       p.Where,
		})
	}
	// The ring window: the most recent events around the detection.
	evs := s.ring.Snapshot()
	const window = 64
	if len(evs) > window {
		evs = evs[len(evs)-window:]
	}
	b.Window = obs.ToRecords(evs)
	s.flight.Record(b)
}

// failOrRetry applies the retry policy to a batch whose run produced
// no trustworthy replies: each request is retried on a different
// instance with exponential backoff, failed once its retry budget or
// deadline is exhausted.
func (s *Server) failOrRetry(inst *instance, batch []*item, cause error) {
	for _, it := range batch {
		if it.retries >= s.cfg.MaxRetries {
			s.metrics.failed.Inc()
			s.finish(it, result{err: fmt.Errorf(
				"serve: request failed after %d retries (%v)", it.retries, cause)})
			continue
		}
		backoff := s.cfg.RetryBackoff << uint(it.retries)
		if s.cfg.Deadline > 0 && time.Since(it.enqueued)+backoff > s.cfg.Deadline {
			// The per-request watchdog: do not keep retrying past the
			// deadline; the submitter gets a definitive failure, never
			// a stale or corrupted reply.
			s.metrics.deadlines.Inc()
			s.finish(it, result{err: ErrDeadline})
			continue
		}
		it.retries++
		it.exclude = inst.id
		s.metrics.retries.Inc()
		s.event(obs.Event{Kind: obs.KindRetry, Actor: int32(inst.id),
			A: uint64(it.retries), Label: "serve", TraceID: it.tid})
		s.requeue([]*item{it}, backoff)
	}
}

// randMask mirrors the fault package's SEU corruption pattern: half
// single-bit flips, half random integers.
func randMask(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return 1 << uint(rng.Intn(64))
	}
	for {
		if m := rng.Uint64(); m != 0 {
			return m
		}
	}
}

// Do serves a request and blocks until its response. When the queue is
// empty and an instance idle, the request runs on the calling goroutine
// as a batch of one; otherwise it is queued (backpressure: a full queue
// blocks the submitter).
func (s *Server) Do(req Request) (uint64, error) {
	if inst := s.idleFor(1); inst != nil {
		entry := inst.spare[:1]
		setItem(entry, 0, req)
		var v [1]uint64
		err := s.runInline(inst, entry, v[:])
		return v[0], err
	}
	t, err := s.Submit(req)
	if err != nil {
		return 0, err
	}
	return t.Wait(nil)
}

// idleFor takes an instance out of the idle set for an entry of n
// requests that may run inline — at most Batch of them, with the queue
// empty, so the entry overtakes nothing — or returns nil.
func (s *Server) idleFor(n int) *instance {
	if n > s.cfg.Batch || len(s.queue) > 0 {
		return nil
	}
	select {
	case inst := <-s.idle:
		return inst
	default:
		return nil
	}
}

// setItem makes items[i] req's item, reusing the item and reply channel
// there (nil: it makes them).
func setItem(items []*item, i int, req Request) {
	if it := items[i]; it != nil {
		*it = itemWith(req, it.done)
	} else {
		items[i] = newItem(req)
	}
}

// runInline runs entry, a prefix of inst's spare items, on inst as one
// batch, stores the replies in out and puts inst back; the caller took
// inst out of the idle set. Items the run did not answer are being
// retried on other instances: inst goes back at once with a new spare
// set, and the caller waits for the retries as a queued request's would.
func (s *Server) runInline(inst *instance, entry []*item, out []uint64) error {
	if err := s.enter(entry); err != nil {
		s.idle <- inst
		return err
	}
	s.runBatch(inst, entry)
	for _, it := range entry {
		if len(it.done) == 0 {
			inst.spare = make([]*item, len(inst.spare))
			s.idle <- inst
			return s.await(entry, out, nil)
		}
	}
	err := s.await(entry, out, nil)
	if err != nil {
		// await stopped at a failure: take the replies after it, so the
		// items go back with empty channels.
		for _, it := range entry {
			select {
			case <-it.done:
			default:
			}
		}
	}
	s.idle <- inst
	return err
}

// A Deadline bounds several blocking calls by one point in time — the
// calls of one cluster fan-out, say. Its channel, and the one timer
// behind it, are made only when a call has to block on it, so calls
// that never block cost neither. A nil *Deadline never expires. Until
// Done has been called once it is not safe for concurrent use; after
// that, Done may be called from several goroutines.
type Deadline struct {
	At    time.Time
	done  chan struct{}
	timer *time.Timer
}

// expired is the Done channel of every deadline found already passed.
var expired = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done returns a channel that is closed once At has passed (nil for a
// nil Deadline).
func (d *Deadline) Done() <-chan struct{} {
	if d == nil {
		return nil
	}
	if d.done == nil {
		wait := time.Until(d.At)
		if wait <= 0 {
			return expired
		}
		done := make(chan struct{})
		d.done, d.timer = done, time.AfterFunc(wait, func() { close(done) })
	}
	return d.done
}

// Stop releases the timer Done started, if any.
func (d *Deadline) Stop() {
	if d != nil && d.timer != nil {
		d.timer.Stop()
	}
}

// Ticket is a request Submit took in; Wait returns its reply.
type Ticket struct {
	srv   *Server
	it    item
	entry [1]*item // the queue entry: the request alone
	// waiting marks a request the full queue has not taken yet.
	waiting bool
}

// Submit takes a request in and returns without waiting for its reply,
// or for room in the queue: a request the full queue cannot take yet
// is queued by Wait. Every Ticket must be waited on, or a request left
// waiting for room keeps Shutdown from draining.
func (s *Server) Submit(req Request) (*Ticket, error) {
	t := &Ticket{srv: s, it: itemFor(req)}
	t.entry[0] = &t.it
	if err := s.enter(t.entry[:]); err != nil {
		return nil, err
	}
	select {
	case s.queue <- t.entry[:]:
	default:
		t.waiting = true
	}
	return t, nil
}

// Queued reports whether the queue took the request at Submit; if not,
// Wait queues it.
func (t *Ticket) Queued() bool { return !t.waiting }

// Wait queues the request if the queue had no room at Submit, waiting
// for room until d expires (ErrOverloaded) or the server closes
// (ErrClosed), then blocks until it is answered and returns its reply —
// or fails: with the request's own error, with ErrDeadline when
// Config.Deadline or d expires first, or with ErrClosed. A reply or
// room already there is taken even after d has expired.
func (t *Ticket) Wait(d *Deadline) (uint64, error) {
	if t.waiting {
		t.waiting = false
		if err := t.srv.enqueue(t.entry[:], d); err != nil {
			return 0, err
		}
	}
	var v [1]uint64
	if err := t.srv.await(t.entry[:], v[:], d); err != nil {
		return 0, err
	}
	return v[0], nil
}

func newItem(req Request) *item {
	it := itemFor(req)
	return &it
}

func itemFor(req Request) item { return itemWith(req, make(chan result, 1)) }

// itemWith is req's item, answered on done.
func itemWith(req Request, done chan result) item {
	return item{
		tid:     req.TraceID,
		word:    workloads.KVRequestWord(req.Write, req.Key, req.Value),
		exclude: -1,
		done:    done,
	}
}

// admit puts the items on the queue as one entry — they run in one
// batch — or admits none of them.
func (s *Server) admit(entry []*item, d *Deadline) error {
	if err := s.enter(entry); err != nil {
		return err
	}
	return s.enqueue(entry, d)
}

// enter counts the items of an entry as submitted and outstanding,
// unless the server is closed or draining.
func (s *Server) enter(entry []*item) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	// Count the requests as outstanding BEFORE they are counted as
	// submitted or enqueued, and before looking at draining: Shutdown sets
	// draining and then reads outstanding, so it can never observe a zero
	// while a just-admitted request races between here and a worker.
	n := int64(len(entry))
	s.outstanding.Add(n)
	if s.draining.Load() {
		// A draining server admits nothing new; in-flight requests
		// keep running until Shutdown's drain completes.
		s.outstanding.Add(-n)
		return ErrClosed
	}
	s.metrics.requests.Add(uint64(n))
	now := time.Now()
	for _, it := range entry {
		it.id, it.enqueued = s.reqID.Add(1), now
		s.event(obs.Event{Kind: obs.KindRequest, A: it.id, TraceID: it.tid})
	}
	return nil
}

// enqueue puts an entered entry on the queue. While the queue is full
// it waits until the server closes or d expires, and then takes the
// entry out of the outstanding count again; room already there is
// taken without starting d's timer.
func (s *Server) enqueue(entry []*item, d *Deadline) error {
	select {
	case s.queue <- entry:
		return nil
	default:
	}
	n := int64(len(entry))
	select {
	case s.queue <- entry:
		return nil
	case <-s.closed:
		s.outstanding.Add(-n)
		return ErrClosed
	case <-d.Done():
		s.outstanding.Add(-n)
		s.metrics.rejected.Inc()
		return ErrOverloaded
	}
}

// await blocks until the admitted items are answered, in order, and
// stores their replies in out — or returns the first failure: an item's
// own, the submitter's side of Config.Deadline (one watchdog for all of
// them), d expiring, or the server closing. The deadline runs from the
// admission of the first item, and it wins a tie: a reply taken after it
// has passed is as late as no reply, however the reply and the timer
// were scheduled. A reply already there is taken without starting d's
// timer, or the watchdog's.
func (s *Server) await(items []*item, out []uint64, d *Deadline) error {
	var watchdog *time.Timer
	defer func() {
		if watchdog != nil {
			watchdog.Stop()
		}
	}()
	var deadline time.Time
	var fired <-chan time.Time
	if s.cfg.Deadline > 0 {
		deadline = items[0].enqueued.Add(s.cfg.Deadline)
	}
	for i, it := range items {
		var r result
		select {
		case r = <-it.done:
		default:
			if s.cfg.Deadline > 0 && watchdog == nil {
				watchdog = time.NewTimer(time.Until(deadline))
				fired = watchdog.C
			}
			select {
			case r = <-it.done:
			case <-fired: // the deadline has passed: the test below fails
			case <-d.Done():
				return ErrDeadline
			case <-s.closed:
				// Close returns once every run under way has answered
				// (this goroutine holds no instance: the items of an
				// inline run it holds one for are answered already).
				// Take the reply such a run gave, or report shutdown.
				s.Close()
				select {
				case r = <-it.done:
				default:
					return ErrClosed
				}
			}
		}
		if r.err != nil {
			return r.err
		}
		if s.cfg.Deadline > 0 && !time.Now().Before(deadline) {
			// The request may still be queued or retrying; the submitter
			// gets a definitive deadline failure now (the late result, if
			// any, lands in the buffered channel and is dropped).
			s.metrics.deadlines.Inc()
			return ErrDeadline
		}
		out[i] = r.val
	}
	return nil
}

// Get reads a key.
func (s *Server) Get(key uint64) (uint64, error) {
	return s.Do(Request{Key: key})
}

// Put writes a key with a value.
func (s *Server) Put(key, value uint64) (uint64, error) {
	return s.Do(Request{Write: true, Key: key, Value: value})
}

// Scan reads n consecutive keys starting at key (wrapping at the key
// range) and returns their replies in order. A scan of at most Batch
// keys that finds the queue empty and an instance idle runs on the
// calling goroutine as one batch, in the instance's spare items, as Do
// runs a point request. Otherwise every run of up to Batch keys is
// admitted as one queue entry, so it costs one machine run unless a key
// has to be retried; all entries are admitted before the first is
// awaited, so a long scan spreads over the pool.
func (s *Server) Scan(key uint64, n int) ([]uint64, error) {
	if n <= 0 {
		return nil, nil
	}
	inst := s.idleFor(n)
	var items []*item
	if inst != nil {
		items = inst.spare[:n]
	} else {
		items = make([]*item, n)
	}
	for i := range items {
		setItem(items, i, Request{Key: (key + uint64(i)) % uint64(s.cfg.KV.Records)})
	}
	out := make([]uint64, n)
	if inst != nil {
		if err := s.runInline(inst, items, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	for lo := 0; lo < n; lo += s.cfg.Batch {
		if err := s.admit(items[lo:min(lo+s.cfg.Batch, n)], nil); err != nil {
			return nil, err // entries already admitted run and are dropped
		}
	}
	if err := s.await(items, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Records returns the configured key range.
func (s *Server) Records() int { return s.cfg.KV.Records }

// ValueWork returns the configured per-request serialization rounds
// (clients use it to verify replies against the reference function).
func (s *Server) ValueWork() int { return s.cfg.KV.ValueWork }

// Metrics returns a snapshot of the live metrics registry.
func (s *Server) Metrics() Snapshot { return s.metrics.Snapshot() }

// Ring returns the server's observability ring buffer: every tx
// begin/commit/abort inside the pool machines plus the serving-layer
// request lifecycle, retries, quarantines, chaos events and verifier
// rejects.
func (s *Server) Ring() *obs.Ring { return s.ring }

// Flight returns the server's forensic flight recorder.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// ProgramHash fingerprints the hardened serving program (fnv64a over
// its printed module) — the identity flight bundles carry.
func (s *Server) ProgramHash() uint64 { return s.progHash }

// WriteProm renders the live metrics in Prometheus text exposition
// format.
func (s *Server) WriteProm(w io.Writer) { s.metrics.reg.WriteProm(w) }

// Health reports the pool/quarantine state for /healthz: healthy
// means the server is open and at least one instance is serviceable.
func (s *Server) Health() obs.Health {
	snap := s.metrics.Snapshot()
	ok := !s.isClosed()
	return obs.Health{
		OK: ok,
		Detail: map[string]any{
			"pool_size":             snap.PoolSize,
			"pool_busy":             snap.PoolBusy,
			"queue_depth":           snap.QueueDepth,
			"quarantines":           snap.Quarantines,
			"rebuilds":              snap.Rebuilds,
			"quarantined_instances": snap.QuarantinedInstances,
			"draining":              s.draining.Load(),
			"closed":                !ok,
		},
	}
}

// DebugHandler returns the HTTP debug endpoints for this server:
// /metrics (Prometheus text exposition), /trace (the ring buffer as
// Chrome trace JSON), /healthz (pool/quarantine state). haftserve
// mounts it on -debug-addr; extra metrics writers (e.g. a campaign
// registry) are appended after the serve metrics.
func (s *Server) DebugHandler(extra ...func(io.Writer)) http.Handler {
	return obs.NewHandler(obs.HandlerConfig{
		Metrics: append([]func(io.Writer){s.WriteProm}, extra...),
		Ring:    s.ring,
		Node:    s.cfg.Node,
		Health:  s.Health,
	})
}

// Close shuts the server down: pool workers stop after their current
// batch, queued requests fail with ErrClosed. It returns once every
// instance is back in the idle set — after the runs under way on
// callers' goroutines too — and keeps them, so nothing runs after it.
// A request whose batch was under way gets that batch's reply.
func (s *Server) Close() {
	s.once.Do(func() {
		close(s.closed)
		s.wg.Wait()
		for range cap(s.idle) {
			<-s.idle
		}
		for {
			select {
			case entry := <-s.queue:
				s.fail(entry, ErrClosed)
			default:
				return
			}
		}
	})
}

// Shutdown drains the server gracefully: new submissions are rejected
// with ErrClosed and registered listeners stop accepting, but every
// already-admitted request — queued, retrying, or mid-batch — runs to
// completion before the pool is torn down. A timeout of 0 waits
// indefinitely; otherwise requests still in flight when it elapses
// fail with ErrClosed and Shutdown returns an error.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.draining.Store(true)
	s.lmu.Lock()
	ls := append([]net.Listener(nil), s.listeners...)
	s.listeners = nil
	s.lmu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for s.outstanding.Load() > 0 {
		if !deadline.IsZero() && time.Now().After(deadline) {
			n := s.outstanding.Load()
			s.Close()
			return fmt.Errorf("serve: shutdown timed out with %d requests in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	return nil
}
