// How one record executes: the run's campaign (or fault-free health
// run) on a run-ahead target and on a stepwise twin with the same
// seed. The record is the run-ahead result; it fails, naming the first
// differing field, unless the twin agrees.

package scenario

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fiThreads is the thread count of fault-injection runs (paper: 2).
const fiThreads = 2

// targets hardens the run's workload at its mode (smallest inputs, as
// in §5.1) and wraps it twice: a run-ahead target and a stepwise twin
// on its own copy of the module.
func targets(run Run) (ahead, step *fault.Target, err error) {
	spec, err := workloads.ByName(run.Axes.Workload)
	if err != nil {
		return nil, nil, err
	}
	mode, err := core.ParseMode(run.Axes.Mode)
	if err != nil {
		return nil, nil, err
	}
	p := spec.Build(0)
	cfg := core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: p.TxThreshold, Blacklist: p.Blacklist}
	mod, err := core.Harden(p.Module, cfg)
	if err != nil {
		return nil, nil, err
	}
	hp := *p
	hp.Module = mod
	target := func(m *ir.Module, interpret bool) *fault.Target {
		return &fault.Target{Name: run.Key(), Module: m, Threads: fiThreads,
			VM: vm.DefaultConfig(), Specs: hp.SpecsFor(fiThreads), Interpret: interpret}
	}
	return target(mod, false), target(mod.Clone(), true), nil
}

// execute runs one record.
func execute(run Run) Record {
	rec := Record{Key: run.Key(), Scenario: run.Scenario.Name, Axes: run.Axes,
		Seed: run.Seed, Outcome: OutcomePass}
	if err := measure(run, &rec); err != nil {
		rec.Outcome = OutcomeFail
		rec.Err = err.Error()
	}
	return rec
}

// measure fills the record's result fields from the run-ahead target
// and checks the stepwise twin and the scenario's gates.
func measure(run Run, rec *Record) error {
	ahead, step, err := targets(run)
	if err != nil {
		return err
	}
	if run.Axes.Model == "none" {
		h := runHealth(ahead)
		rec.Runs = 1
		rec.Counts = map[string]int{"status/" + h.Status.String(): 1}
		rec.CorrectedFaults = h.Stats.CorrectedFaults
		rec.Instrs, rec.Cycles = h.Stats.DynInstrs, h.Stats.Cycles
		if err := agree("health", h, runHealth(step)); err != nil {
			return err
		}
		if h.Status != vm.StatusOK {
			return fmt.Errorf("scenario: fault-free run ended %v (%s)", h.Status, h.Stats.CrashReason)
		}
		return nil
	}
	model, err := fault.ParseModel(run.Axes.Model)
	if err != nil {
		return err
	}
	flow, err := fault.ParseFlow(run.Axes.Flow)
	if err != nil {
		return err
	}
	campaign := func(tg *fault.Target) (*fault.CampaignResult, error) {
		return fault.RunCampaign(tg, fault.CampaignConfig{
			Models:     []fault.Model{model},
			Injections: run.Scenario.Injections,
			Seed:       int64(run.Seed & math.MaxInt64),
			Flow:       flow,
			// One worker: the runner already parallelizes across records,
			// and campaign results are worker-count independent.
			Workers: 1,
		})
	}
	cr, err := campaign(ahead)
	if err != nil {
		return err
	}
	mr := cr.PerModel[0]
	rec.Runs = mr.Total
	rec.Counts = map[string]int{}
	for _, o := range fault.Outcomes() {
		if n := mr.Counts[o]; n > 0 {
			rec.Counts[o.String()] = n
		}
	}
	rec.SDCRuns = mr.Counts[fault.OutcomeSDC]
	rec.CorrectedRuns = mr.Counts[fault.OutcomeHAFTCorrected]
	rec.CorrectedFaults = mr.CorrectedFaults
	rec.Instrs, rec.Cycles = cr.RefDynInstrs, cr.RefCycles
	twin, err := campaign(step)
	if err != nil {
		return fmt.Errorf("scenario: stepwise twin: %w", err)
	}
	if err := agree("campaign", cr, twin); err != nil {
		return err
	}
	if gate := run.Scenario.MaxSDCRuns; gate >= 0 && rec.SDCRuns > gate {
		return fmt.Errorf("scenario: %d SDC runs exceed the scenario gate of %d", rec.SDCRuns, gate)
	}
	return nil
}

// health is what a fault-free run must reproduce on both engines.
type health struct {
	Status vm.Status
	Stats  vm.RunStats
	Output []uint64
}

// runHealth runs the target's program once without faults.
func runHealth(tg *fault.Target) health {
	var mach *vm.Machine
	if tg.Interpret {
		mach = vm.New(tg.Module, tg.Threads, tg.VM)
	} else {
		mach = vm.NewFromProgram(vm.Compile(tg.Module), tg.Threads, tg.VM)
	}
	mach.Run(tg.Specs...)
	return health{Status: mach.Status(), Stats: mach.Stats(), Output: mach.Output()}
}

// agree returns an error naming the first exported field at which the
// run-ahead and stepwise results differ.
func agree(what string, ahead, step any) error {
	if d := firstDiff(what, reflect.ValueOf(ahead), reflect.ValueOf(step)); d != "" {
		return fmt.Errorf("scenario: stepwise twin disagrees at %s", d)
	}
	return nil
}

// firstDiff walks exported struct fields, pointers and sequences and
// describes the first leaf at which a and b differ ("" if none).
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: run-ahead nil=%v, stepwise nil=%v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				if d := firstDiff(path+"."+f.Name, a.Field(i), b.Field(i)); d != "" {
					return d
				}
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: run-ahead len %d, stepwise len %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return fmt.Sprintf("%s: run-ahead %v, stepwise %v", path, a, b)
	}
	return ""
}
