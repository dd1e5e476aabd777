package fault

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// TestTargetSharesCompiledProgram: campaign machines must reuse one
// compiled artifact instead of re-cloning the module per run.
func TestTargetSharesCompiledProgram(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	m1 := tg.newMachine()
	m2 := tg.newMachine()
	if m1.Mod != m2.Mod {
		t.Fatal("workers hold different module copies; the program is not shared")
	}
	if tg.prog == nil || tg.prog.Mod != tg.Module {
		t.Fatal("target did not cache its compiled program")
	}

	// Stepwise workers (vm.New) compile for themselves.
	tg2 := target(t, core.ModeHAFT)
	tg2.Interpret = true
	if tg2.newMachine(); tg2.prog != nil {
		t.Fatal("Interpret target took the shared program")
	}
}

// TestCampaignEngineBitIdentical is the cross-dispatch campaign
// contract: the same seeds produce byte-identical JSON checkpoints
// whether the workers dispatch fused (the default) or stepwise
// (Interpret), across all six fault models.
func TestCampaignEngineBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep")
	}
	run := func(interpret bool) []byte {
		tg := target(t, core.ModeHAFT)
		tg.Interpret = interpret
		res, err := RunCampaign(tg, CampaignConfig{
			Models:     AllModels(),
			Injections: 96,
			Seed:       20260806,
			Workers:    4,
			Batch:      24,
		})
		if err != nil {
			t.Fatalf("interpret=%v: %v", interpret, err)
		}
		b, err := res.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		return b
	}
	compiled := run(false)
	interp := run(true)
	if !bytes.Equal(compiled, interp) {
		t.Fatalf("campaign checkpoints diverge between dispatches:\nfused:    %s\nstepwise: %s",
			compiled, interp)
	}

	// Determinism across repeats (the resumable-checkpoint property must
	// survive the shared program cache).
	if again := run(false); !bytes.Equal(compiled, again) {
		t.Fatal("compiled campaign not deterministic across repeats")
	}
}
