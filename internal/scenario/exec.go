// Executors: how one concrete matrix run executes. KindFI runs a
// fixed-seed fault-injection campaign through the existing campaign
// engine (fault.RunCampaign); KindServe drives the request-serving
// layer under a chaos profile; KindFixture defers to the scenario.
//
// Executors return a body (the measurable result — recorded even when
// a gate fails, so the bundle pins what was observed) and an error
// (gate violation or execution failure). ErrSkip classifies runs whose
// axis combination is statically valid but empty at runtime.

package scenario

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/internal/ycsb"
)

// ErrSkip marks a run whose parameterization selects nothing at
// runtime (e.g. an empty injection population); the runner records it
// with outcome "skip" instead of "fail".
var ErrSkip = errors.New("scenario: run skipped")

// fiThreads is the thread count of fault-injection runs (paper: 2).
const fiThreads = 2

// body is the measurable result of one attempt.
type body struct {
	runs            int
	counts          map[string]int
	sdcRuns         int
	correctedRuns   int
	correctedFaults uint64
	instrs          uint64
	cycles          uint64
}

// execute dispatches one attempt of a run to its executor.
func execute(run Run, injections int, attempt int) (*body, error) {
	switch run.Scenario.Kind {
	case KindFI:
		return executeFI(run, injections)
	case KindServe:
		return executeServe(run)
	case KindFixture:
		return &body{runs: 1}, run.Scenario.Fixture(run, attempt)
	}
	return nil, fmt.Errorf("scenario: no executor for kind %v", run.Scenario.Kind)
}

// buildTarget hardens the run's workload at its mode and wraps it as a
// fault target on the axes' engine (fault injection always uses the
// smallest inputs, as in §5.1).
func buildTarget(run Run) (*fault.Target, error) {
	spec, err := workloads.ByName(run.Axes.Workload)
	if err != nil {
		return nil, err
	}
	mode, err := core.ParseMode(run.Axes.Mode)
	if err != nil {
		return nil, err
	}
	p := spec.Build(0)
	cfg := core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: p.TxThreshold, Blacklist: p.Blacklist}
	mod, err := core.Harden(p.Module, cfg)
	if err != nil {
		return nil, err
	}
	hp := *p
	hp.Module = mod
	return &fault.Target{
		Name:      run.Key(),
		Module:    mod,
		Threads:   fiThreads,
		VM:        vm.DefaultConfig(),
		Specs:     hp.SpecsFor(fiThreads),
		Interpret: run.Axes.Engine == "step",
	}, nil
}

// executeFI runs the run's campaign: with a real fault model, a
// fixed-seed single-model campaign through fault.RunCampaign; with
// model "none", a fault-free health run whose status must be ok.
func executeFI(run Run, injections int) (*body, error) {
	tg, err := buildTarget(run)
	if err != nil {
		return nil, err
	}
	if run.Axes.Model == "none" {
		return executeHealth(run, tg)
	}
	model, err := fault.ParseModel(run.Axes.Model)
	if err != nil {
		return nil, err
	}
	flow, err := fault.ParseFlow(run.Axes.Flow)
	if err != nil {
		return nil, err
	}
	cr, err := fault.RunCampaign(tg, fault.CampaignConfig{
		Models:     []fault.Model{model},
		Injections: injections,
		Seed:       int64(run.Seed & math.MaxInt64),
		Flow:       flow,
		// One worker: the runner already parallelizes across matrix
		// runs, and campaign results are worker-count independent.
		Workers: 1,
	})
	if err != nil {
		// A statically valid flow restriction can still select an empty
		// dynamic population on a particular workload; that is a skip,
		// not a harness failure.
		if strings.Contains(err.Error(), "empty") && strings.Contains(err.Error(), "population") {
			return nil, fmt.Errorf("%w: %v", ErrSkip, err)
		}
		return nil, err
	}
	mr := cr.PerModel[0]
	b := &body{
		runs:            mr.Total,
		counts:          map[string]int{},
		sdcRuns:         mr.Counts[fault.OutcomeSDC],
		correctedRuns:   mr.Counts[fault.OutcomeHAFTCorrected],
		correctedFaults: mr.CorrectedFaults,
		cycles:          cr.RefCycles,
		instrs:          cr.RefDynInstrs,
	}
	for _, o := range fault.Outcomes() {
		if n := mr.Counts[o]; n > 0 {
			b.counts[o.String()] = n
		}
	}
	if gate := run.Scenario.MaxSDCRuns; gate >= 0 && b.sdcRuns > gate {
		return b, fmt.Errorf("scenario: %d SDC runs exceed the scenario gate of %d", b.sdcRuns, gate)
	}
	return b, nil
}

// executeHealth is the model="none" executor: the hardened build must
// run to completion on the selected engine; the record pins its
// deterministic RunStats.
func executeHealth(run Run, tg *fault.Target) (*body, error) {
	var mach *vm.Machine
	if tg.Interpret {
		mach = vm.New(tg.Module.Clone(), tg.Threads, tg.VM)
	} else {
		mach = vm.NewFromProgram(vm.Compile(tg.Module), tg.Threads, tg.VM)
	}
	mach.Run(tg.Specs...)
	st := mach.Stats()
	b := &body{
		runs:            1,
		counts:          map[string]int{"status/" + mach.Status().String(): 1},
		correctedFaults: st.CorrectedFaults,
		instrs:          st.DynInstrs,
		cycles:          st.Cycles,
	}
	if mach.Status() != vm.StatusOK {
		return b, fmt.Errorf("scenario: fault-free run ended %v (%s)", mach.Status(), st.CrashReason)
	}
	return b, nil
}

// serveRequests is the per-run request budget of serving scenarios.
const serveRequests = 1200

// executeServe drives the hardened serving layer under the axes' chaos
// profile and hardening mode with YCSB-A traffic. Reply verification
// stays on; the zero-delivered-corruptions invariant is the gate.
func executeServe(run Run) (*body, error) {
	chaos, err := serve.ChaosProfile(run.Axes.Chaos)
	if err != nil {
		return nil, err
	}
	mode, err := core.ParseMode(run.Axes.Mode)
	if err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	cfg.Pool = 4
	cfg.Seed = int64(run.Seed & math.MaxInt64)
	cfg.SEURate = 0.002
	cfg.MaxRetries = 8
	cfg.Chaos = chaos
	cfg.Harden.Mode = mode
	cfg.Deadline = run.Scenario.Timeout / 2
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	const clients = 8
	w := ycsb.WorkloadA(srv.Records())
	done := make(chan struct{})
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			gen := ycsb.NewGenerator(w, cfg.Seed+int64(i)*1000003)
			for n := 0; n < serveRequests/clients; n++ {
				r := gen.Next()
				req := serve.Request{Write: r.Op == ycsb.OpWrite, Key: r.Key}
				if req.Write {
					req.Value = r.Key*2654435761 + uint64(i)
				}
				srv.Do(req) //nolint:errcheck // failures land in the metrics
			}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	snap := srv.Metrics()
	b := &body{
		runs: int(snap.Requests),
		counts: map[string]int{
			"responses":      int(snap.Responses),
			"failed":         int(snap.Failed),
			"retries":        int(snap.Retries),
			"faulted_runs":   int(snap.FaultedRuns),
			"quarantines":    int(snap.Quarantines),
			"verify_rejects": int(snap.VerifyRejects),
			"corrupted":      int(snap.CorruptedReplies),
		},
		correctedFaults: snap.CorrectedFaults,
	}
	for k, v := range snap.ChaosEvents {
		b.counts["chaos/"+k] = int(v)
	}
	if snap.CorruptedReplies > 0 {
		return b, fmt.Errorf("scenario: %d corrupted replies delivered (invariant: zero)", snap.CorruptedReplies)
	}
	return b, nil
}
