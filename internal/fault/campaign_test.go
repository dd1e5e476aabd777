package fault

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// refMachine runs the target fault-free and returns the machine.
func refMachine(t *testing.T, tg *Target) *vm.Machine {
	t.Helper()
	m := tg.newMachine()
	m.Run(tg.Specs...)
	if m.Status() != vm.StatusOK {
		t.Fatalf("reference run failed: %v", m.Status())
	}
	return m
}

func TestReferencePopulations(t *testing.T) {
	nat := refMachine(t, target(t, core.ModeNative)).Stats()
	if nat.RegWrites == 0 || nat.MemAccesses == 0 || nat.CondBranches == 0 {
		t.Fatalf("native populations empty: %+v", nat)
	}
	if nat.ShadowRegWrites != 0 {
		t.Fatalf("native run counted %d shadow writes", nat.ShadowRegWrites)
	}
	hard := refMachine(t, target(t, core.ModeHAFT)).Stats()
	if hard.ShadowRegWrites == 0 {
		t.Fatal("hardened run counted no shadow register writes")
	}
	if hard.ShadowRegWrites >= hard.RegWrites {
		t.Fatalf("shadow writes %d not a strict subset of %d reg writes",
			hard.ShadowRegWrites, hard.RegWrites)
	}
}

// TestVMFaultModels drives each machine-level model directly and
// checks its injection fires and produces the intended effect class.
func TestVMFaultModels(t *testing.T) {
	tg := target(t, core.ModeNative)
	ref := refMachine(t, tg)
	refOut := append([]uint64(nil), ref.Output()...)
	stats := ref.Stats()
	budget := stats.DynInstrs*10 + 100_000

	run := func(p *vm.FaultPlan) (*vm.Machine, Outcome) {
		m := tg.newMachine()
		m.Cfg.MaxDynInstrs = budget
		m.SetFaultPlan(p)
		m.Run(tg.Specs...)
		return m, Classify(m, refOut)
	}

	t.Run("branch", func(t *testing.T) {
		// Inverting the first loop back-edge decision exits the 64-iter
		// loop after one pass: the output cannot be correct.
		p := &vm.FaultPlan{Model: vm.FaultBranch, TargetIndex: 0}
		_, o := run(p)
		if !p.Injected {
			t.Fatal("branch fault not injected")
		}
		if o == OutcomeMasked {
			t.Fatalf("inverted loop branch was masked")
		}
	})

	t.Run("memory", func(t *testing.T) {
		// Flip a high bit of a written word: the sum loop reads it back,
		// so the corruption must surface in the output.
		p := &vm.FaultPlan{Model: vm.FaultMemory, TargetIndex: 10, Mask: 1 << 40}
		_, o := run(p)
		if !p.Injected {
			t.Fatal("memory fault not injected")
		}
		if o != OutcomeSDC {
			t.Fatalf("native memory flip outcome %v, want SDC", o)
		}
	})

	t.Run("addr-wild", func(t *testing.T) {
		// A high address bit lands the access far outside the mapped
		// heap: the OS must kill the run.
		p := &vm.FaultPlan{Model: vm.FaultAddress, TargetIndex: 5, Mask: 1 << 40}
		_, o := run(p)
		if !p.Injected {
			t.Fatal("address fault not injected")
		}
		if o != OutcomeOSDetected {
			t.Fatalf("wild address outcome %v, want OS-detected", o)
		}
	})

	t.Run("skip", func(t *testing.T) {
		// Suppressing a result latch leaves a stale register; the plan
		// must report as injected even though no bits were flipped.
		p := &vm.FaultPlan{Model: vm.FaultSkip, TargetIndex: 30}
		_, _ = run(p)
		if !p.Injected {
			t.Fatal("skip fault not injected")
		}
		if p.Where == "" {
			t.Fatal("skip fault did not record its site")
		}
	})

	t.Run("double", func(t *testing.T) {
		a := &vm.FaultPlan{Model: vm.FaultRegister, TargetIndex: 20, Mask: 1}
		b := &vm.FaultPlan{Model: vm.FaultRegister, TargetIndex: 40, Mask: 2}
		m := tg.newMachine()
		m.Cfg.MaxDynInstrs = budget
		m.SetFaultPlans([]*vm.FaultPlan{a, b})
		m.Run(tg.Specs...)
		if !a.Injected || !b.Injected {
			t.Fatalf("double SEU: injected=%v,%v", a.Injected, b.Injected)
		}
	})
}

// TestOutcomeHangClassification covers the budget-exhaustion path: a
// run that exceeds MaxDynInstrs must classify as Hang (Table 1).
func TestOutcomeHangClassification(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	ref := refMachine(t, tg)
	refOut := append([]uint64(nil), ref.Output()...)

	m := tg.newMachine()
	m.Cfg.MaxDynInstrs = 50 // far below the reference trace length
	m.Run(tg.Specs...)
	if m.Status() != vm.StatusHung {
		t.Fatalf("starved run status %v, want hung", m.Status())
	}
	if o := Classify(m, refOut); o != OutcomeHang {
		t.Fatalf("starved run classified %v, want Hang", o)
	}
	if OutcomeHang.Class() != ClassCrashed {
		t.Fatal("Hang must be a crashed-class outcome")
	}
}

func TestMultiModelCampaign(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	models := []Model{ModelRegister, ModelMemory, ModelBranch, ModelSkip}
	const n = 120
	res, err := RunCampaign(tg, CampaignConfig{
		Models:     models,
		Injections: n,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != n {
		t.Fatalf("total %d, want %d", res.Total(), n)
	}
	if len(res.PerModel) != len(models) {
		t.Fatalf("%d model results, want %d", len(res.PerModel), len(models))
	}
	for _, mr := range res.PerModel {
		if mr.Total != n/len(models) {
			t.Fatalf("model %s ran %d times, want %d (stratified round-robin)",
				mr.Model, mr.Total, n/len(models))
		}
		sum := 0
		for _, c := range mr.Counts {
			sum += c
		}
		if sum != mr.Total {
			t.Fatalf("model %s counts sum %d != total %d", mr.Model, sum, mr.Total)
		}
		for o := Outcome(0); o < numOutcomes; o++ {
			lo, hi := mr.CI(o, 0.95)
			rate := mr.Rate(o)
			if lo < 0 || hi > 100 || lo > rate+1e-9 || hi < rate-1e-9 {
				t.Fatalf("model %s outcome %v: CI [%.2f,%.2f] does not bracket rate %.2f",
					mr.Model, o, lo, hi, rate)
			}
		}
	}
	// The vulnerability table renders one row per (program, model).
	tbl := CampaignTable(res)
	if len(tbl.Rows) != len(models) {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(models))
	}
}

func TestCampaignEarlyStopAtMOE(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	const budget = 5000
	res, err := RunCampaign(tg, CampaignConfig{
		Models:     []Model{ModelRegister, ModelBranch},
		Injections: budget,
		Seed:       9,
		MOE:        0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("campaign ran all %d without reaching moe 0.05 (now %.4f)",
			res.Total(), res.MOE())
	}
	if res.Total() >= budget {
		t.Fatalf("early-stopped campaign used the whole budget (%d)", res.Total())
	}
	for _, mr := range res.PerModel {
		if mr.Total < minPerModel {
			t.Fatalf("model %s stopped with only %d runs", mr.Model, mr.Total)
		}
		if moe := mr.MOE(0.95); moe > 0.05 {
			t.Fatalf("model %s stopped at moe %.4f > 0.05", mr.Model, moe)
		}
	}
}

func TestCampaignResumeIdentical(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	cfg := CampaignConfig{
		Models:     []Model{ModelRegister, ModelMemory},
		Injections: 60,
		Seed:       21,
		Batch:      20,
		Workers:    4,
	}
	full, err := RunCampaign(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := full.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt after the first batch: capture the checkpoint bytes,
	// round-trip them through JSON, and resume.
	var mid []byte
	cfg2 := cfg
	cfg2.Injections = 20 // stop after one batch
	cfg2.OnCheckpoint = func(r *CampaignResult) {
		b, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		mid = b
	}
	if _, err := RunCampaign(tg, cfg2); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCheckpoint(mid)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NextIndex != 20 {
		t.Fatalf("checkpoint resumes at %d, want 20", restored.NextIndex)
	}
	cfg3 := cfg
	cfg3.Resume = restored
	resumed, err := RunCampaign(tg, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := resumed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("resumed campaign differs from uninterrupted run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// A checkpoint from a different spec must be rejected.
	bad := cfg
	bad.Seed = 99
	bad.Resume = restored
	if _, err := RunCampaign(tg, bad); err == nil {
		t.Fatal("campaign accepted a checkpoint with a mismatched spec")
	}
}

func TestCampaignWorkerCountIndependent(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	base := CampaignConfig{
		Models:     []Model{ModelRegister, ModelBranch, ModelDouble},
		Injections: 45,
		Seed:       3,
	}
	one := base
	one.Workers = 1
	many := base
	many.Workers = 7
	a, err := RunCampaign(tg, one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(tg, many)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.Checkpoint()
	bj, _ := b.Checkpoint()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("results depend on worker count:\n%s\nvs\n%s", aj, bj)
	}
}

// TestFlowTargetedInjection validates ILR symmetry: faults confined to
// the master flow and faults confined to the shadow flow must both be
// detected by the hardened build (neither flow is a blind spot).
func TestFlowTargetedInjection(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	for _, flow := range []vm.FaultFlow{vm.FlowMaster, vm.FlowShadow} {
		res, err := RunCampaign(tg, CampaignConfig{
			Models:     []Model{ModelRegister},
			Injections: 60,
			Seed:       13,
			Flow:       flow,
		})
		if err != nil {
			t.Fatalf("%v campaign: %v", flow, err)
		}
		mr := res.PerModel[0]
		detected := mr.Counts[OutcomeILRDetected] + mr.Counts[OutcomeHAFTCorrected]
		if detected == 0 {
			t.Errorf("flow %v: no fault detected in %d runs — ILR flow asymmetry", flow, mr.Total)
		}
		if corrupt := mr.ClassRate(ClassCorrupted); corrupt > 15 {
			t.Errorf("flow %v: corruption rate %.1f%% too high for a hardened build", flow, corrupt)
		}
	}
}

func TestParseModelsAndFlow(t *testing.T) {
	ms, err := ParseModels("reg,mem,branch")
	if err != nil || len(ms) != 3 || ms[1] != ModelMemory {
		t.Fatalf("ParseModels: %v %v", ms, err)
	}
	if _, err := ParseModels("reg,bogus"); err == nil {
		t.Fatal("ParseModels accepted an unknown model")
	}
	if _, err := ParseModels(""); err == nil {
		t.Fatal("ParseModels accepted an empty list")
	}
	for _, m := range AllModels() {
		back, err := ParseModel(m.String())
		if err != nil || back != m {
			t.Fatalf("model %v does not round-trip", m)
		}
	}
	if f, err := ParseFlow("shadow"); err != nil || f != vm.FlowShadow {
		t.Fatalf("ParseFlow(shadow): %v %v", f, err)
	}
	if _, err := ParseFlow("sideways"); err == nil {
		t.Fatal("ParseFlow accepted an unknown flow")
	}
}

func TestWilsonAndZ(t *testing.T) {
	if z := zFor(0.95); math.Abs(z-1.95996) > 0.001 {
		t.Fatalf("z(0.95) = %v", z)
	}
	if z := zFor(0.99); math.Abs(z-2.57583) > 0.001 {
		t.Fatalf("z(0.99) = %v", z)
	}
	lo, hi := wilson(0, 100, 1.96)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Fatalf("wilson(0,100) = [%v,%v]", lo, hi)
	}
	// The interval tightens as n grows.
	_, h1 := wilson(5, 50, 1.96)
	l1, _ := wilson(5, 50, 1.96)
	l2, h2 := wilson(50, 500, 1.96)
	if (h2 - l2) >= (h1 - l1) {
		t.Fatalf("interval did not tighten: n=50 width %v, n=500 width %v", h1-l1, h2-l2)
	}
	// Degenerate n=0 covers everything.
	if lo, hi := wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Fatalf("wilson(0,0) = [%v,%v]", lo, hi)
	}
}

// resumable runs the first batch of a campaign of the target over the
// models and returns its configuration, set to run a second batch, and
// the checkpoint after the first.
func resumable(t testing.TB, tg *Target, models []Model) (CampaignConfig, []byte) {
	t.Helper()
	cfg := CampaignConfig{Models: models, Injections: 12, Seed: 5, Batch: 12, Workers: 2}
	first, err := RunCampaign(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Injections = 24
	return cfg, b
}

// TestCampaignRejectsMalformedCheckpoint: a checkpoint that decodes but
// does not describe a campaign that can be continued is refused with an
// error, both by LoadCheckpoint and by RunCampaign given it in memory,
// instead of panicking (in a worker, where no caller can recover it) or
// folding into wrong rates.
func TestCampaignRejectsMalformedCheckpoint(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	two := []Model{ModelRegister, ModelMemory}
	for _, tc := range []struct {
		name   string
		models []Model
		spoil  func(r *CampaignResult)
	}{
		{"sites null", []Model{ModelRegister}, func(r *CampaignResult) { r.PerModel[0].Sites = nil }},
		{"next index negative, six models", AllModels(), func(r *CampaignResult) { r.NextIndex = -5 }},
		{"next index negative, one model", []Model{ModelRegister},
			func(r *CampaignResult) {
				r.NextIndex, r.PerModel[0].Total, r.PerModel[0].Counts = -5, 0, [numOutcomes]int{}
			}},
		{"model result null", two, func(r *CampaignResult) { r.PerModel[1] = nil }},
		{"model results swapped", two, func(r *CampaignResult) { r.PerModel[0], r.PerModel[1] = r.PerModel[1], r.PerModel[0] }},
		{"total is not the sum of the counts", two, func(r *CampaignResult) { r.PerModel[0].Counts[OutcomeSDC]++ }},
		{"totals do not sum to next index", two, func(r *CampaignResult) {
			r.PerModel[1].Total++
			r.PerModel[1].Counts[OutcomeSDC]++
		}},
		{"totals sum to next index, but not round-robin", two, func(r *CampaignResult) {
			r.PerModel[0].Total++
			r.PerModel[0].Counts[OutcomeSDC]++
			r.PerModel[1].Total--
			r.PerModel[1].Counts[someOutcome(r.PerModel[1])]--
		}},
		{"negative count", two, func(r *CampaignResult) {
			mr := r.PerModel[0]
			o := someOutcome(mr)
			mr.Counts[(o+1)%numOutcomes] += mr.Counts[o] + 1
			mr.Counts[o] = -1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, good := resumable(t, tg, tc.models)
			r, err := LoadCheckpoint(good)
			if err != nil {
				t.Fatal(err)
			}
			tc.spoil(r)
			b, err := r.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCheckpoint(b); err == nil {
				t.Error("LoadCheckpoint accepted it")
			}
			cfg.Resume = r
			if _, err := RunCampaign(tg, cfg); err == nil {
				t.Error("RunCampaign resumed it")
			}
		})
	}
}

// someOutcome returns an outcome the model has runs of.
func someOutcome(mr *ModelResult) Outcome {
	for o, n := range mr.Counts {
		if n > 0 {
			return Outcome(o)
		}
	}
	panic("model result without runs")
}

// FuzzLoadCheckpoint: whatever a checkpoint file holds, loading it and
// resuming a campaign from it returns an error or a result, and never
// panics.
func FuzzLoadCheckpoint(f *testing.F) {
	tg := target(f, core.ModeHAFT)
	cfg, good := resumable(f, tg, []Model{ModelRegister, ModelBranch, ModelDouble})
	f.Add(good)
	f.Add([]byte(strings.Replace(string(good), `"next_index": 12`, `"next_index": -5`, 1)))
	f.Add([]byte(strings.Replace(string(good), `"sites": {`, `"sites": null, "x": {`, 1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := LoadCheckpoint(b)
		if err != nil {
			return
		}
		cfg := cfg
		cfg.Resume = r
		RunCampaign(tg, cfg)
	})
}
