package fault

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
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

// lockProg has every thread take a contended lock around a shared
// update and then meet at a barrier: lock handoffs and the barrier wake
// threads, and threads running the same code reach the same clocks.
const lockProg = `
global g bytes=64
global lk bytes=8
global bar bytes=8
func main(0) {
entry:
  v0 = call @thread.id
  v1 = call @thread.count
  jmp loop
loop:
  v2 = phi #0 [entry], v8 [loop]
  call @lock.acquire #4160
  v5 = load #4096
  v6 = add v5, v0
  v7 = add v6, #1
  store #4096, v7
  call @lock.release #4160
  v8 = add v2, #1
  v9 = cmp lt v8, #24
  br v9, loop, sync
sync:
  call @barrier.wait #4168, v1
  v10 = cmp eq v0, #0
  br v10, emit, fin
emit:
  v11 = load #4096
  out v11
  jmp fin
fin:
  ret
}
`

// lockTarget is lockProg hardened in mode, at the given thread count.
func lockTarget(t *testing.T, mode core.Mode, threads int) *Target {
	t.Helper()
	mod, err := core.Harden(ir.MustParse(lockProg), core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: 200})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]vm.ThreadSpec, threads)
	for i := range specs {
		specs[i] = vm.ThreadSpec{Func: "main"}
	}
	return &Target{
		Name:    fmt.Sprintf("locks/%v/%dT", mode, threads),
		Module:  mod,
		Threads: threads,
		VM:      vm.DefaultConfig(),
		Specs:   specs,
	}
}

// TestCampaignEngineBitIdentical is the cross-dispatch campaign
// contract: the same seeds produce byte-identical JSON checkpoints
// whether the workers take run-ahead turns (the default) or stepwise
// ones (Interpret), across all six fault models — on one thread, and on
// two and four threads contending for a lock, where run-ahead turns end
// at wakes and clock crossings.
func TestCampaignEngineBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep")
	}
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) *Target
	}{
		{"synthetic/1T", func(t *testing.T) *Target { return target(t, core.ModeHAFT) }},
		{"locks/2T", func(t *testing.T) *Target { return lockTarget(t, core.ModeHAFT, 2) }},
		{"locks/4T", func(t *testing.T) *Target { return lockTarget(t, core.ModeILR, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(interpret bool) []byte {
				tg := tc.target(t)
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
			ahead := run(false)
			step := run(true)
			if !bytes.Equal(ahead, step) {
				t.Fatalf("campaign checkpoints diverge between dispatches:\nrun-ahead: %s\nstepwise:  %s",
					ahead, step)
			}

			// Determinism across repeats (the resumable-checkpoint property
			// must survive the shared program cache).
			if again := run(false); !bytes.Equal(ahead, again) {
				t.Fatal("campaign not deterministic across repeats")
			}
		})
	}
}
