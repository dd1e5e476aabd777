package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

func vmQuiet() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

// testProgram mixes loops, helper calls, memory traffic and output.
const testProgram = `
global table bytes=512 align=64
func mix3(1) local {
entry:
  v1 = mul v0, #2654435761
  v2 = shr v1, #13
  v3 = xor v1, v2
  ret v3
}
func main(0) {
entry:
  jmp fill
fill:
  v0 = phi #0 [entry], v4 [fill]
  v1 = call @mix3 v0
  v2 = mul v0, #8
  v3 = add v2, #4096
  store v3, v1
  v4 = add v0, #1
  v5 = cmp lt v4, #64
  br v5, fill, sum
sum:
  jmp sloop
sloop:
  v6 = phi #0 [sum], v12 [sloop]
  v7 = phi #0 [sum], v10 [sloop]
  v8 = mul v6, #8
  v13 = add v8, #4096
  v9 = load v13
  v10 = add v7, v9
  v12 = add v6, #1
  v14 = cmp lt v12, #64
  br v14, sloop, done
done:
  out v10
  ret
}
`

func runMain(t *testing.T, m *ir.Module, plan *vm.FaultPlan) *vm.Machine {
	t.Helper()
	mach := vm.New(m, 1, vmQuiet())
	if plan != nil {
		mach.SetFaultPlan(plan)
	}
	mach.Run(vm.ThreadSpec{Func: "main"})
	return mach
}

func TestAllModesPreserveSemantics(t *testing.T) {
	native := ir.MustParse(testProgram)
	want := runMain(t, native.Clone(), nil)
	if want.Status() != vm.StatusOK {
		t.Fatalf("native: %v", want.Status())
	}
	for _, mode := range []Mode{ModeILR, ModeTX, ModeHAFT} {
		for _, opt := range OptLevels() {
			cfg := Config{Mode: mode, Opt: opt, TxThreshold: 500}
			h, err := Harden(native, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, opt, err)
			}
			mach := runMain(t, h, nil)
			if mach.Status() != vm.StatusOK {
				t.Fatalf("%v/%v: status %v (%s)", mode, opt, mach.Status(), mach.Stats().CrashReason)
			}
			if got, exp := mach.Output(), want.Output(); len(got) != len(exp) || got[0] != exp[0] {
				t.Fatalf("%v/%v: output %v, want %v", mode, opt, got, exp)
			}
		}
	}
}

func TestHardenLeavesInputUntouched(t *testing.T) {
	native := ir.MustParse(testProgram)
	before := native.NumInstrs()
	MustHarden(native, DefaultConfig())
	if native.NumInstrs() != before {
		t.Fatal("Harden mutated its input module")
	}
}

func TestOverheadOrdering(t *testing.T) {
	// Instruction-count overhead: native < TX < ILR < HAFT.
	native := ir.MustParse(testProgram)
	count := func(mode Mode) int {
		return MustHarden(native, Config{Mode: mode, Opt: OptFaultProp, TxThreshold: 1000}).NumInstrs()
	}
	n, tx, i, h := native.NumInstrs(), count(ModeTX), count(ModeILR), count(ModeHAFT)
	if !(n < tx && tx < i && i < h) {
		t.Fatalf("instruction counts native=%d tx=%d ilr=%d haft=%d violate ordering", n, tx, i, h)
	}
}

// TestHAFTRecoversFromInjectedFaults is the core claim of the paper:
// with ILR+TX, most detected faults roll back and re-execute instead
// of killing the program.
func TestHAFTRecoversFromInjectedFaults(t *testing.T) {
	native := ir.MustParse(testProgram)
	ref := runMain(t, native.Clone(), nil)
	refOut := ref.Output()[0]

	haft := MustHarden(native, DefaultConfig())
	// Count the register-write population once.
	probe := runMain(t, haft.Clone(), nil)
	pop := probe.Stats().RegWrites
	if pop == 0 {
		t.Fatal("no register writes recorded")
	}

	var corrected, masked, detectedFatal, crashed, sdc int
	trials := 120
	for k := 0; k < trials; k++ {
		idx := uint64(k) * (pop - 1) / uint64(trials-1)
		plan := &vm.FaultPlan{TargetIndex: idx, Mask: 1 << uint(7+k%17)}
		mach := runMain(t, haft.Clone(), plan)
		switch mach.Status() {
		case vm.StatusOK:
			if len(mach.Output()) == 1 && mach.Output()[0] == refOut {
				if mach.Stats().ExplicitAborts > 0 {
					corrected++
				} else {
					masked++
				}
			} else {
				sdc++
			}
		case vm.StatusILRDetected:
			detectedFatal++
		case vm.StatusCrashed:
			crashed++
		case vm.StatusHung:
			crashed++
		}
	}
	t.Logf("corrected=%d masked=%d ilr-fatal=%d crashed=%d sdc=%d",
		corrected, masked, detectedFatal, crashed, sdc)
	if corrected == 0 {
		t.Error("no fault was ever corrected by transaction rollback")
	}
	// SDC rate must be small: the paper reports 1.1% on average; allow
	// slack for the tiny program and structured sampling.
	if sdc > trials/10 {
		t.Errorf("SDC count %d/%d too high for HAFT", sdc, trials)
	}
	// And recovery must dominate fail-stop: that is HAFT's point.
	if corrected < detectedFatal {
		t.Errorf("corrected=%d < ilr-fatal=%d; recovery is not working", corrected, detectedFatal)
	}
}

// TestILROnlyDetectsButDoesNotRecover mirrors Figure 9: ILR alone
// turns faults into program terminations.
func TestILROnlyDetectsButDoesNotRecover(t *testing.T) {
	native := ir.MustParse(testProgram)
	ilrMod := MustHarden(native, Config{Mode: ModeILR, Opt: OptFaultProp})
	probe := runMain(t, ilrMod.Clone(), nil)
	pop := probe.Stats().RegWrites

	var detected, corrected int
	trials := 60
	for k := 0; k < trials; k++ {
		idx := uint64(k) * (pop - 1) / uint64(trials-1)
		plan := &vm.FaultPlan{TargetIndex: idx, Mask: 1 << uint(5+k%19)}
		mach := runMain(t, ilrMod.Clone(), plan)
		if mach.Status() == vm.StatusILRDetected {
			detected++
		}
		if mach.Stats().Recovered > 0 {
			corrected++
		}
	}
	if detected == 0 {
		t.Error("ILR never detected anything")
	}
	if corrected != 0 {
		t.Errorf("ILR-only run recovered %d times; recovery requires TX", corrected)
	}
}

func TestGoldenFigure2Shape(t *testing.T) {
	// The full pipeline applied to the Figure 2 source must show the
	// published structure: replicated phi/add/cmp, a fault-propagation
	// check feeding the split, counter maintenance at the latch, and a
	// store check before tx.end.
	src := `
global c bytes=8
func foo(1) {
entry:
  v1 = load v0
  jmp loop
loop:
  v2 = phi v1 [entry], v3 [loop]
  v3 = add v2, #1
  v4 = cmp lt v3, #1000
  br v4, loop, end
end:
  store v0, v3
  ret v3
}
`
	m := ir.MustParse(src)
	h := MustHarden(m, DefaultConfig())
	text := h.Func("foo").String()
	for _, want := range []string{
		"tx.begin", "tx.end", "tx.cond_split", "tx.counter_inc",
		"!shadow", "!check", "faultprop", "ilr.fail",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("golden shape missing %q:\n%s", want, text)
		}
	}
	// And it still computes c=1000.
	h.Layout()
	mach := vm.New(h, 1, vmQuiet())
	mach.Poke(h.Global("c").Addr, 123)
	mach.Run(vm.ThreadSpec{Func: "foo", Args: []uint64{h.Global("c").Addr}})
	if mach.Status() != vm.StatusOK {
		t.Fatalf("status %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	if got := mach.Peek(h.Global("c").Addr); got != 1000 {
		t.Fatalf("c = %d, want 1000", got)
	}
}

func TestModeAndOptStrings(t *testing.T) {
	if ModeHAFT.String() != "haft" || ModeNative.String() != "native" {
		t.Error("mode names")
	}
	got := ""
	for _, o := range OptLevels() {
		got += o.String()
	}
	if got != "NSCLF" {
		t.Errorf("opt ladder = %q, want NSCLF", got)
	}
}

func TestCollectStats(t *testing.T) {
	m := ir.MustParse(testProgram)
	base := m.NumInstrs()
	h := MustHarden(m, DefaultConfig())
	st := CollectStats(h)
	if st.Funcs != 2 || st.Instrs <= base {
		t.Fatalf("stats: %+v", st)
	}
	if st.Shadow == 0 || st.Checks == 0 || st.TxBegins == 0 || st.TxCondSplits == 0 {
		t.Fatalf("instrumentation not counted: %+v", st)
	}
	if st.Expansion(base) <= 1.5 {
		t.Fatalf("expansion %.2f implausibly low", st.Expansion(base))
	}
	// Rendered block mentions every category.
	text := st.String()
	for _, want := range []string{"shadow-flow", "integrity checks", "transaction begins", "conditional splits"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats text missing %q", want)
		}
	}
	// Native stats: no instrumentation.
	nst := CollectStats(m)
	if nst.Shadow != 0 || nst.TxBegins != 0 {
		t.Fatalf("native module reports instrumentation: %+v", nst)
	}
}

// TestParseModeRoundTrip: every mode parses back from its own name (so
// a CLI can never reject a mode the pipeline implements), and an
// unknown name is refused with the valid ones listed.
func TestParseModeRoundTrip(t *testing.T) {
	for m := Mode(0); m < numModes; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m || m.String() == "mode?" {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode("tmr"); err != nil || m != ModeTMR {
		t.Errorf("ParseMode(tmr) = %v, %v", m, err)
	}
	_, err := ParseMode("mode?")
	if err == nil || !strings.Contains(err.Error(), "native, ilr, tx, haft, tmr") {
		t.Errorf("unknown mode error = %v, want the valid names listed", err)
	}
}
