// The "vmexec" experiment: the dispatch differential. For every hardened
// workload it runs the same module once with stepwise turns (vm.New, one
// instruction per scheduler turn) and once with run-ahead turns
// (vm.NewFromProgram), checks the runs are bit-identical (status,
// output, run statistics, HTM behavior), and reports the static shape
// of the compiled artifact. A second stage
// repeats a multi-model fault-injection campaign with both and compares
// the JSON checkpoints byte for byte. Any divergence is an error. The
// result is deterministic; how fast each dispatch runs is bench/'s
// exec-ladder (vm.minstr_per_s.*, vm.interp_minstr_per_s).
package exp

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// VMExecRow is one hardened benchmark's dispatch comparison.
type VMExecRow struct {
	Benchmark string `json:"benchmark"`
	// DynInstrs is the dynamic instruction count of one run (equal for
	// both dispatches by construction).
	DynInstrs uint64 `json:"dyn_instrs"`
	// Identical reports full bit-identity of the two dispatches' runs.
	Identical bool `json:"identical"`
	// Program is the static shape of the compiled artifact.
	Program vm.ProgramStats `json:"program"`
}

// VMExecCampaign compares a full fault-injection campaign across
// dispatches.
type VMExecCampaign struct {
	Benchmark  string `json:"benchmark"`
	Injections int    `json:"injections"`
	// CheckpointsIdentical: the two campaigns' JSON checkpoints are
	// byte-identical (same outcomes for every seeded injection).
	CheckpointsIdentical bool `json:"checkpoints_identical"`
}

// VMExecResult is the structured result of the vmexec experiment.
type VMExecResult struct {
	Threads int         `json:"threads"`
	Scale   int         `json:"scale"`
	Rows    []VMExecRow `json:"rows"`
	// Divergences counts benchmarks whose dispatches disagreed (must be
	// zero; a non-zero count fails the experiment).
	Divergences int            `json:"divergences"`
	Campaign    VMExecCampaign `json:"campaign"`
}

// vmexecProbe is one dispatch's observable outcome.
type vmexecProbe struct {
	status vm.Status
	out    []uint64
	stats  vm.RunStats
}

func vmexecRun(mach *vm.Machine, specs []vm.ThreadSpec) vmexecProbe {
	mach.Run(specs...)
	return vmexecProbe{mach.Status(), mach.Output(), mach.Stats()}
}

// VMExec runs the dispatch differential over the hardened workload
// suite plus one cross-dispatch fault campaign. It returns an error if
// any benchmark or the campaign diverges between dispatches.
func VMExec(o Options) (*VMExecResult, *report.Table, error) {
	benches := o.benchList()
	res := &VMExecResult{Threads: 1, Scale: o.Scale}
	type meas struct {
		row VMExecRow
		err error
	}
	rows := parallelMap(len(benches), func(i int) meas {
		p := benches[i].Build(o.Scale)
		cfg := core.DefaultConfig()
		cfg.TxThreshold = p.TxThreshold
		cfg.Blacklist = p.Blacklist
		mod := core.MustHarden(p.Module, cfg)
		hp := *p
		hp.Module = mod
		specs := hp.SpecsFor(1)

		stepwise := vmexecRun(vm.New(mod, 1, vm.DefaultConfig()), specs)
		if stepwise.status != vm.StatusOK {
			return meas{err: fmt.Errorf("%s: stepwise run failed: %v (%s)",
				benches[i].Name, stepwise.status, stepwise.stats.CrashReason)}
		}
		prog := vm.Compile(mod)
		ahead := vmexecRun(vm.NewFromProgram(prog, 1, vm.DefaultConfig()), specs)
		return meas{row: VMExecRow{
			Benchmark: benches[i].Name,
			DynInstrs: stepwise.stats.DynInstrs,
			Identical: ahead.status == stepwise.status &&
				slices.Equal(ahead.out, stepwise.out) && ahead.stats == stepwise.stats,
			Program: prog.Stats(),
		}}
	})

	var diverged []string
	for _, m := range rows {
		if m.err != nil {
			return nil, nil, m.err
		}
		res.Rows = append(res.Rows, m.row)
		if !m.row.Identical {
			res.Divergences++
			diverged = append(diverged, m.row.Benchmark)
		}
	}

	// Cross-dispatch campaign: same seeds, all six fault models, both
	// dispatches — the checkpoints must match byte for byte.
	camp, err := vmexecCampaign(benches[0], o)
	if err != nil {
		return nil, nil, err
	}
	res.Campaign = camp

	verdict := map[bool]string{true: "identical", false: "DIVERGED"}
	t := &report.Table{
		Title:  fmt.Sprintf("vmexec: run-ahead vs stepwise dispatch (threads=1, scale=%d)", o.Scale),
		Header: []string{"benchmark", "dyn instrs (M)", "instrs", "outputs"},
	}
	for _, r := range res.Rows {
		t.AddF(2, r.Benchmark, float64(r.DynInstrs)/1e6, r.Program.Instrs, verdict[r.Identical])
	}
	t.AddF(2, fmt.Sprintf("campaign %s x%d", camp.Benchmark, camp.Injections),
		"", "", verdict[camp.CheckpointsIdentical])

	if res.Divergences > 0 {
		return res, t, fmt.Errorf("vmexec: dispatches diverged on %v", diverged)
	}
	if !camp.CheckpointsIdentical {
		return res, t, fmt.Errorf("vmexec: campaign checkpoints diverged between dispatches")
	}
	return res, t, nil
}

// vmexecCampaign runs the same seeded multi-model campaign with both
// dispatches and compares the checkpoints. The campaign runs
// Options.FIThreads threads (default 2), where run-ahead turns switch
// cores at every lock, barrier and clock crossing.
func vmexecCampaign(spec workloads.Spec, o Options) (VMExecCampaign, error) {
	injections := o.Injections
	if injections <= 0 {
		injections = 60
	}
	camp := VMExecCampaign{Benchmark: spec.Name, Injections: injections}
	run := func(interpret bool) ([]byte, error) {
		tg := fiTarget(spec, core.ModeHAFT, core.OptFaultProp, o)
		tg.Interpret = interpret
		cr, err := fault.RunCampaign(tg, fault.CampaignConfig{
			Models:     fault.AllModels(),
			Injections: injections,
			Seed:       o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return cr.Checkpoint()
	}
	ib, err := run(true)
	if err != nil {
		return camp, fmt.Errorf("vmexec campaign (stepwise): %w", err)
	}
	cb, err := run(false)
	if err != nil {
		return camp, fmt.Errorf("vmexec campaign (run-ahead): %w", err)
	}
	camp.CheckpointsIdentical = bytes.Equal(ib, cb)
	return camp, nil
}
