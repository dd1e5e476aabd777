// Package haft is the public API of this reproduction of
// "HAFT: Hardware-Assisted Fault Tolerance" (Kuvaiskii et al.,
// EuroSys 2016).
//
// HAFT protects unmodified multithreaded programs against transient
// CPU faults by combining Instruction-Level Redundancy (ILR) for fault
// detection with Hardware Transactional Memory (HTM) for fault
// recovery. This repository rebuilds the whole system in Go on top of
// a simulated substrate: an SSA-style IR and compiler pass framework
// (standing in for LLVM), an Intel-TSX-like HTM model, a multicore
// machine with a superscalar timing model, the software fault
// injector of §4.2, and the CTMC availability model of Figure 5.
//
// The facade in this package covers the common flows:
//
//	prog, _ := haft.Parse(src)                  // or haft.Benchmark("histogram")
//	hard, _ := haft.Harden(prog, haft.DefaultConfig())
//	res := haft.Run(hard, 4)                    // execute on the simulated machine
//	rep, _ := haft.InjectFaults(hard, 500, 1)   // single-event-upset campaign
//	text, _ := haft.Experiment("table2", opts)  // regenerate a paper table/figure
//
// Lower-level control (custom passes, HTM parameters, machine
// internals) lives in the internal packages; see DESIGN.md for the map.
package haft

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/internal/ycsb"
)

// Program is a runnable program: a module plus its entry convention.
type Program struct {
	// Name identifies the program in reports.
	Name string
	prog *workloads.Program
}

// Mode selects the hardening pipeline.
type Mode = core.Mode

// Hardening modes.
const (
	ModeNative = core.ModeNative
	ModeILR    = core.ModeILR
	ModeTX     = core.ModeTX
	ModeHAFT   = core.ModeHAFT
	// ModeTMR is the Elzar-style triple-modular-redundancy backend:
	// three data flows with 2-of-3 majority votes at externalization
	// points, correcting a diverging replica in place instead of
	// detecting and aborting.
	ModeTMR = core.ModeTMR
)

// ParseMode resolves a mode name ("native", "ilr", "tx", "haft",
// "tmr"), the inverse of Mode.String.
func ParseMode(name string) (Mode, error) { return core.ParseMode(name) }

// OptLevel is the cumulative §3.3 optimization ladder (N/S/C/L/F).
type OptLevel = core.OptLevel

// Optimization levels.
const (
	OptNone        = core.OptNone
	OptSharedMem   = core.OptSharedMem
	OptControlFlow = core.OptControlFlow
	OptLocalCalls  = core.OptLocalCalls
	OptFaultProp   = core.OptFaultProp
)

// Config selects mode, optimizations and transaction threshold.
type Config = core.Config

// DefaultConfig returns full HAFT with every optimization enabled and
// the default transaction-size threshold.
func DefaultConfig() Config { return core.DefaultConfig() }

// Parse builds a program from textual IR. The program's entry point is
// the function named "main" (no arguments), which every thread runs.
func Parse(src string) (*Program, error) {
	m, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	if m.Func("main") == nil {
		return nil, fmt.Errorf("haft: program has no main function")
	}
	if m.Func("main").NParams != 0 {
		return nil, fmt.Errorf("haft: main must take no parameters")
	}
	return &Program{
		Name: "program",
		prog: &workloads.Program{Module: m, Entry: "main", TxThreshold: 1000},
	}, nil
}

// Benchmark returns one of the paper's evaluation programs by name
// (histogram, kmeans, kmeans-ns, linearreg, matrixmul, pca,
// stringmatch, wordcount, wordcount-ns, blackscholes, canneal, dedup,
// ferret, streamcluster, swaptions, vips, vips-nc, x264) or a case
// study (memcached, logcabin, apache, leveldb, sqlite). scale >= 1
// grows the input; 0 selects the smallest input used for fault
// injection.
func Benchmark(name string, scale int) (*Program, error) {
	s, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Program{Name: name, prog: s.Build(scale)}, nil
}

// Benchmarks lists the Phoenix/PARSEC benchmark names in evaluation
// order.
func Benchmarks() []string { return workloads.Names() }

// Memcached builds the §6.1 Memcached-like server: workload "A" (50%
// reads, zipfian) or "D" (95% reads, latest), synchronized with
// "atomics" or "locks". requests <= 0 selects the default stream
// length.
func Memcached(workload, sync string, requests int) (*Program, error) {
	var wl ycsb.Workload
	switch workload {
	case "A", "a":
		wl = ycsb.WorkloadA(1024)
	case "D", "d":
		wl = ycsb.WorkloadD(1024)
	default:
		return nil, fmt.Errorf("haft: unknown YCSB workload %q (want A or D)", workload)
	}
	var sm workloads.SyncMode
	switch sync {
	case "atomics":
		sm = workloads.SyncAtomics
	case "locks":
		sm = workloads.SyncLocks
	default:
		return nil, fmt.Errorf("haft: unknown sync mode %q (want atomics or locks)", sync)
	}
	cfg := workloads.DefaultMcConfig(wl, sm)
	if requests > 0 {
		cfg.Requests = requests
	}
	return &Program{
		Name: fmt.Sprintf("memcached-%s-%s", workload, sync),
		prog: workloads.Memcached(cfg),
	}, nil
}

// Source returns the program's textual IR.
func (p *Program) Source() string { return p.prog.Module.String() }

// Harden applies the configured passes and returns the hardened
// program; the input is unchanged.
func Harden(p *Program, cfg Config) (*Program, error) {
	out, _, err := HardenWithStats(p, cfg)
	return out, err
}

// HardenStats reports what the overhead-reduction passes did during
// hardening (all zero unless the Config enables them).
type HardenStats = core.HardenStats

// ReducedConfig returns DefaultConfig with every overhead-reduction
// pass (TX-aware relaxation, copy propagation, redundant-check
// elimination, check coalescing) enabled.
func ReducedConfig() Config { return core.ReducedConfig() }

// HardenWithStats is Harden plus a report of the overhead-reduction
// pass activity.
func HardenWithStats(p *Program, cfg Config) (*Program, HardenStats, error) {
	if cfg.TxThreshold == 0 {
		cfg.TxThreshold = p.prog.TxThreshold
	}
	if cfg.Blacklist == nil {
		cfg.Blacklist = p.prog.Blacklist
	}
	mod, hs, err := core.HardenWithStats(p.prog.Module, cfg)
	if err != nil {
		return nil, hs, err
	}
	np := *p.prog
	np.Module = mod
	return &Program{Name: p.Name + "+" + cfg.Mode.String(), prog: &np}, hs, nil
}

// Result summarizes one execution on the simulated machine.
type Result struct {
	// Status is "ok", "crashed", "ilr-detected" or "hung".
	Status string
	// Output is the externalized output stream.
	Output []uint64
	// Cycles is the simulated duration; Seconds converts it at the
	// 2 GHz clock of the paper's testbed.
	Cycles  uint64
	Seconds float64
	// DynInstrs counts executed instructions.
	DynInstrs uint64
	// AbortRate is the percentage of hardware transactions aborted.
	AbortRate float64
	// Coverage is the fraction of busy cycles spent inside
	// transactions (the §5.6 metric), in percent.
	Coverage float64
	// Recovered counts transaction rollbacks triggered by ILR checks
	// that re-executed successfully.
	Recovered uint64
	// CorrectedFaults counts TMR majority votes that rewrote a
	// diverging replica in place (always zero outside ModeTMR).
	CorrectedFaults uint64
	// CrashReason explains a "crashed" status.
	CrashReason string
}

// Run executes the program on a machine with the given number of
// threads/cores and returns the result.
func Run(p *Program, threads int) Result {
	mach := vm.NewFromProgram(vm.SharedPrograms.Get(p.prog.Module), threads, vm.DefaultConfig())
	mach.Run(p.prog.SpecsFor(threads)...)
	st := mach.Stats()
	return Result{
		Status:          mach.Status().String(),
		Output:          mach.Output(),
		Cycles:          st.Cycles,
		Seconds:         cpu.CyclesToSeconds(st.Cycles),
		DynInstrs:       st.DynInstrs,
		AbortRate:       mach.HTM.Stats.AbortRate(),
		Coverage:        100 * mach.Coverage(),
		Recovered:       st.Recovered,
		CorrectedFaults: st.CorrectedFaults,
		CrashReason:     st.CrashReason,
	}
}

// TraceEvent is one executed register-writing instruction from an
// execution trace — the reference-run side of the two-step fault
// injection protocol (§4.2).
type TraceEvent struct {
	Index       uint64
	Core        int
	Func, Block string
	Op          string
	Value       uint64
	Cycle       uint64
}

// Trace runs the program and returns the result plus the first max
// trace events (max <= 0 collects everything; beware of memory on
// long runs).
func Trace(p *Program, threads, max int) (Result, []TraceEvent) {
	mach := vm.NewFromProgram(vm.SharedPrograms.Get(p.prog.Module), threads, vm.DefaultConfig())
	var events []TraceEvent
	mach.SetTracer(func(ev vm.TraceEvent) {
		if max > 0 && len(events) >= max {
			return
		}
		events = append(events, TraceEvent{
			Index: ev.Index, Core: ev.Core,
			Func: ev.Func, Block: ev.Block,
			Op: ev.Op.String(), Value: ev.Value, Cycle: ev.Cycle,
		})
	})
	mach.Run(p.prog.SpecsFor(threads)...)
	st := mach.Stats()
	return Result{
		Status:          mach.Status().String(),
		Output:          mach.Output(),
		Cycles:          st.Cycles,
		Seconds:         cpu.CyclesToSeconds(st.Cycles),
		DynInstrs:       st.DynInstrs,
		AbortRate:       mach.HTM.Stats.AbortRate(),
		Coverage:        100 * mach.Coverage(),
		Recovered:       st.Recovered,
		CorrectedFaults: st.CorrectedFaults,
		CrashReason:     st.CrashReason,
	}, events
}

// FaultReport aggregates a single-event-upset campaign (Table 1
// outcomes).
type FaultReport struct {
	Injections int
	// Percentages per Table 1 outcome.
	Hang, OSDetected, ILRDetected, Corrected, Masked, SDC float64
	// Class totals.
	Crashed, Correct, Corrupted float64
}

// InjectFaults runs n single-fault injections against the program with
// two threads (the paper's fault-injection configuration) and
// classifies every outcome.
func InjectFaults(p *Program, n int, seed int64) (FaultReport, error) {
	tg := &fault.Target{
		Name:    p.Name,
		Module:  p.prog.Module,
		Threads: 2,
		VM:      vm.DefaultConfig(),
		Specs:   p.prog.SpecsFor(2),
	}
	res, err := fault.Campaign(tg, n, seed)
	if err != nil {
		return FaultReport{}, err
	}
	return FaultReport{
		Injections:  res.Total,
		Hang:        res.Rate(fault.OutcomeHang),
		OSDetected:  res.Rate(fault.OutcomeOSDetected),
		ILRDetected: res.Rate(fault.OutcomeILRDetected),
		Corrected:   res.Rate(fault.OutcomeHAFTCorrected),
		Masked:      res.Rate(fault.OutcomeMasked),
		SDC:         res.Rate(fault.OutcomeSDC),
		Crashed:     res.ClassRate(fault.ClassCrashed),
		Correct:     res.ClassRate(fault.ClassCorrect),
		Corrupted:   res.ClassRate(fault.ClassCorrupted),
	}, nil
}

// FaultModel names one fault model of the campaign engine: register
// bit-flip ("reg"), memory-word flip ("mem"), branch-direction
// inversion ("branch"), address-line fault ("addr"), instruction skip
// ("skip"), or double SEU ("double").
type FaultModel = fault.Model

// The fault-model family.
const (
	FaultModelRegister = fault.ModelRegister
	FaultModelMemory   = fault.ModelMemory
	FaultModelBranch   = fault.ModelBranch
	FaultModelAddress  = fault.ModelAddress
	FaultModelSkip     = fault.ModelSkip
	FaultModelDouble   = fault.ModelDouble
)

// FaultModels lists every fault model of the campaign engine.
func FaultModels() []FaultModel { return fault.AllModels() }

// ParseFaultModels resolves a comma-separated fault-model list (e.g.
// "reg,mem,branch").
func ParseFaultModels(s string) ([]FaultModel, error) { return fault.ParseModels(s) }

// FaultFlow restricts register-indexed fault models to one redundant
// data flow — the master, the (first) shadow, or the second TMR shadow
// — injecting into each separately validates the symmetry of the
// replicated flows.
type FaultFlow = vm.FaultFlow

// Fault flows.
const (
	FaultFlowAny     = vm.FlowAny
	FaultFlowMaster  = vm.FlowMaster
	FaultFlowShadow  = vm.FlowShadow
	FaultFlowShadow2 = vm.FlowShadow2
)

// ParseFaultFlow resolves a flow name ("any", "master", "shadow",
// "shadow2").
func ParseFaultFlow(s string) (FaultFlow, error) { return fault.ParseFlow(s) }

// FaultFlowName returns the canonical name of a flow.
func FaultFlowName(f FaultFlow) string { return fault.FlowName(f) }

// FaultFlowsForMode returns the fault flows that exist under the named
// hardening mode (native, ilr, tx, haft, tmr): shadow needs a mode
// that builds a shadow data flow, shadow2 needs TMR's second replica.
func FaultFlowsForMode(mode string) ([]FaultFlow, error) { return fault.FlowsForMode(mode) }

// ValidateFaultFlowForMode rejects flow restrictions that cannot
// select any instruction under the given hardening mode; the error
// lists the flows that are valid for the mode.
func ValidateFaultFlowForMode(mode string, f FaultFlow) error {
	return fault.ValidateFlowForMode(mode, f)
}

// FaultCampaignConfig parameterizes a multi-model campaign: the model
// mix, the injection budget, stratified-sampling segments, the target
// margin of error and confidence level for early stopping, worker
// fan-out, and an optional checkpoint to resume from.
type FaultCampaignConfig = fault.CampaignConfig

// FaultCampaignResult is the (checkpointable) outcome of a campaign:
// per-model outcome counts with Wilson confidence intervals, site
// breakdowns, recovery work, and merged HTM statistics. Serialize it
// with Checkpoint and resume via FaultCampaignConfig.Resume.
type FaultCampaignResult = fault.CampaignResult

// LoadFaultCheckpoint restores a campaign state serialized with
// FaultCampaignResult.Checkpoint.
func LoadFaultCheckpoint(b []byte) (*FaultCampaignResult, error) {
	return fault.LoadCheckpoint(b)
}

// InjectFaultsMulti runs a multi-model fault-injection campaign
// against the program with two threads (the paper's fault-injection
// configuration). Unlike InjectFaults it covers the whole fault-model
// family, reports confidence intervals, stops early at the configured
// margin of error, and supports checkpoint/resume.
func InjectFaultsMulti(p *Program, cfg FaultCampaignConfig) (*FaultCampaignResult, error) {
	tg := &fault.Target{
		Name:    p.Name,
		Module:  p.prog.Module,
		Threads: 2,
		VM:      vm.DefaultConfig(),
		Specs:   p.prog.SpecsFor(2),
	}
	return fault.RunCampaign(tg, cfg)
}

// FaultCampaignTable renders campaign results as the per-model
// vulnerability table (class rates with confidence intervals).
func FaultCampaignTable(results ...*FaultCampaignResult) string {
	return fault.CampaignTable(results...).String()
}

// String renders the report like a Figure 9 bar.
func (r FaultReport) String() string {
	return fmt.Sprintf(
		"injections=%d crashed=%.1f%% (hang %.1f, os %.1f, ilr %.1f) correct=%.1f%% (corrected %.1f, masked %.1f) corrupted=%.1f%%",
		r.Injections, r.Crashed, r.Hang, r.OSDetected, r.ILRDetected,
		r.Correct, r.Corrected, r.Masked, r.Corrupted)
}

// Stats returns the static instrumentation statistics of a (hardened)
// program, in an LLVM -stats style block.
func Stats(p *Program) string {
	return core.CollectStats(p.prog.Module).String()
}

// Expansion returns hardened's static instruction count relative to
// base's — the code-growth factor of the passes.
func Expansion(base, hardened *Program) float64 {
	return core.CollectStats(hardened.prog.Module).
		Expansion(base.prog.Module.NumInstrs())
}

// ServeConfig parameterizes the hardened request-serving layer: pool
// size, queue bound, batch size, retry/quarantine policy, hardening
// mode, and the optional SEU injection campaign.
type ServeConfig = serve.Config

// ServeRequest is one key-value operation against a Server.
type ServeRequest = serve.Request

// ServeChaosConfig parameterizes the serving layer's chaos testing:
// per-run probabilities of instance kills, hangs (budget exhaustion),
// and multi-upset SEU storms. Set it in ServeConfig.Chaos, usually
// together with ServeConfig.Deadline.
type ServeChaosConfig = serve.ChaosConfig

// Server is the hardened request-serving layer: a warm pool of
// HAFT-hardened VM instances behind a bounded queue, with fault-aware
// retries, quarantine, and a live metrics registry. Serve requests
// in-process with Get/Put/Scan/Do, or export the text protocol over
// TCP with ServeListener (see cmd/haftserve and cmd/haftload).
type Server = serve.Server

// ServeSnapshot is a point-in-time export of a Server's metrics
// (throughput, latency percentiles, abort causes, fault counters).
type ServeSnapshot = serve.Snapshot

// ServeConn is a client connection to a Server's TCP endpoint.
type ServeConn = serve.Conn

// DefaultServeConfig returns the standard serving configuration:
// 8 warm HAFT instances, batches of 32, 3 retries, verification on.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewServer hardens the serving program and starts the warm pool.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.NewServer(cfg) }

// DialServer connects to a Server's TCP endpoint.
func DialServer(addr string) (*ServeConn, error) { return serve.Dial(addr) }

// ServeReference computes the correct reply for a request, letting
// clients verify responses end to end.
func ServeReference(req ServeRequest, valueWork int) uint64 {
	return workloads.KVReference(
		workloads.KVRequestWord(req.Write, req.Key, req.Value), valueWork)
}

// ClusterConfig parameterizes the multi-node serving tier: replication
// factor, ring geometry, retry/breaker policy, and whole-node chaos.
type ClusterConfig = cluster.Config

// ClusterChaosConfig parameterizes cluster-tier chaos: whole-node
// kills with rolling (quorum-preserving) selection and timed rebuilds.
type ClusterChaosConfig = cluster.ChaosConfig

// Cluster is the sharded, replicated routing front end over a set of
// serving nodes: consistent-hash sharding, majority reply voting on
// reads, quorum-acknowledged logged writes with replay on failover.
// It serves the same text protocol as a single Server (see
// cmd/haftrouter).
type Cluster = cluster.Cluster

// ClusterBackend is one serving node as the cluster sees it: local
// (in-process Server) or remote (TCP connection pool to a haftserve).
// Its Ping takes the deadline the router gives every probe, CallTimeout
// away: a node that never answers must fail the probe by then.
type ClusterBackend = cluster.Backend

// ClusterSnapshot is a point-in-time export of a Cluster's metrics
// (votes, masked corruptions, failovers, replayed writes, per-node
// states).
type ClusterSnapshot = cluster.Snapshot

// DefaultClusterConfig returns the standard cluster configuration:
// R=3 with majority voting, 64 shards x 64 vnodes.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// NewCluster builds the routing tier over the given backends and
// starts its health checker. The cluster owns the backends: Close
// closes them.
func NewCluster(backends []ClusterBackend, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(backends, cfg)
}

// NewLocalBackend runs a serving node in-process (used by tests,
// benchmarks, and single-binary deployments).
func NewLocalBackend(id string, cfg ServeConfig) (ClusterBackend, error) {
	return cluster.NewLocalBackend(id, cfg)
}

// NewRemoteBackend pools connections to a haftserve TCP endpoint.
func NewRemoteBackend(id, addr string, maxConns int) ClusterBackend {
	return cluster.NewRemoteBackend(id, addr, maxConns)
}

// CompileSource compiles a program written in the C-flavored source
// language (package lang) down to IR and returns it as a Program.
// The entry point is main(); every thread runs it.
func CompileSource(src string) (*Program, error) {
	m, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	f := m.Func("main")
	if f == nil {
		return nil, fmt.Errorf("haft: source has no main function")
	}
	if f.NParams != 0 {
		return nil, fmt.Errorf("haft: main must take no parameters")
	}
	return &Program{
		Name: "program",
		prog: &workloads.Program{Module: m, Entry: "main", TxThreshold: 1000},
	}, nil
}
