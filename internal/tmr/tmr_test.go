package tmr

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

func mustParse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func vmQuiet() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

const figure1 = `
func f(2) {
entry:
  v2 = add v0, v1
  ret v2
}
`

func TestTriplicationShape(t *testing.T) {
	m := mustParse(t, figure1)
	Apply(m, Options{})
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := m.Func("f")
	text := f.String()
	var s1Adds, s2Adds, votes int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpAdd && in.HasFlag(ir.FlagShadow) {
				if in.HasFlag(ir.FlagShadow2) {
					s2Adds++
				} else {
					s1Adds++
				}
			}
			if in.Op == ir.OpCall && in.Callee == "tmr.vote" {
				votes++
				if len(in.Args) != 3 {
					t.Errorf("vote has %d args, want 3\n%s", len(in.Args), text)
				}
			}
		}
	}
	if s1Adds != 1 || s2Adds != 1 {
		t.Errorf("shadow adds = %d/%d, want 1/1\n%s", s1Adds, s2Adds, text)
	}
	// One vote on the returned value; none elsewhere.
	if votes != 1 {
		t.Errorf("votes = %d, want 1\n%s", votes, text)
	}
	// TMR never fail-stops on its own: no detect blocks, no ilr.fail.
	if strings.Contains(text, "ilr.fail") {
		t.Errorf("TMR emitted a detection block:\n%s", text)
	}
}

func TestSemanticPreservation(t *testing.T) {
	// A program mixing loops, calls, memory, floats and branches must
	// produce identical output before and after TMR, under every
	// option combination.
	src := `
global data bytes=256 align=64
global sum bytes=8
func helper(1) local {
entry:
  v1 = mul v0, #3
  v2 = add v1, #1
  ret v2
}
func main(0) frame=16 {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v3 [body]
  v1 = cmp lt v0, #32
  br v1, body, done
body:
  v2 = call @helper v0
  v3 = add v0, #1
  v4 = mul v0, #8
  v5 = add v4, #4096
  store v5, v2
  jmp loop
done:
  jmp acc
acc:
  v6 = phi #0 [done], v12 [accbody]
  v7 = phi #0 [done], v10 [accbody]
  v8 = cmp lt v6, #32
  br v8, accbody, fin
accbody:
  v9 = mul v6, #8
  v13 = add v9, #4096
  v11 = load v13
  v10 = add v7, v11
  v12 = add v6, #1
  jmp acc
fin:
  v14 = sitofp v7
  v15 = fsqrt v14
  v16 = fptosi v15
  out v7
  out v16
  ret
}
`
	native := mustParse(t, src)
	nm := vm.New(native.Clone(), 1, vmQuiet())
	nm.Run(vm.ThreadSpec{Func: "main"})
	if nm.Status() != vm.StatusOK {
		t.Fatalf("native run failed: %v (%s)", nm.Status(), nm.Stats().CrashReason)
	}
	want := nm.Output()

	opts := []Options{
		{},
		AllOptions(),
	}
	for oi, o := range opts {
		m := native.Clone()
		Apply(m, o)
		if err := ir.Verify(m); err != nil {
			t.Fatalf("opts[%d]: verify: %v", oi, err)
		}
		mach := vm.New(m, 1, vmQuiet())
		mach.Run(vm.ThreadSpec{Func: "main"})
		if mach.Status() != vm.StatusOK {
			t.Fatalf("opts[%d]: status=%v (%s)", oi, mach.Status(), mach.Stats().CrashReason)
		}
		got := mach.Output()
		if len(got) != len(want) {
			t.Fatalf("opts[%d]: output %v, want %v", oi, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("opts[%d]: output %v, want %v", oi, got, want)
			}
		}
		if m.NumInstrs() <= native.NumInstrs() {
			t.Fatalf("opts[%d]: no instructions added", oi)
		}
		if mach.Stats().CorrectedFaults != 0 {
			t.Fatalf("opts[%d]: corrected faults on a fault-free run", oi)
		}
	}
}

func TestBranchMajorityCascade(t *testing.T) {
	src := `
func f(1) {
entry:
  v1 = cmp gt v0, #5
  br v1, yes, no
yes:
  out #1
  ret
no:
  out #0
  ret
}
`
	m := mustParse(t, src)
	Apply(m, Options{ControlFlow: true})
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := m.Func("f")
	for _, name := range []string{"entry.t1", "entry.t2", "entry.f1", "entry.f2", "entry.jt", "entry.jf"} {
		if blockIndex(f, name) < 0 {
			t.Fatalf("cascade block %s missing:\n%s", name, f)
		}
	}
	// Behavior: true path taken for v0 > 5.
	for _, arg := range []uint64{9, 3} {
		mach := vm.New(m.Clone(), 1, vmQuiet())
		mach.Run(vm.ThreadSpec{Func: "f", Args: []uint64{arg}})
		if mach.Status() != vm.StatusOK {
			t.Fatalf("run(%d): %v", arg, mach.Status())
		}
		want := uint64(0)
		if arg > 5 {
			want = 1
		}
		if mach.Output()[0] != want {
			t.Fatalf("run(%d): out=%v", arg, mach.Output())
		}
	}

	// Without ControlFlow, the cascade must not be built.
	m2 := mustParse(t, src)
	Apply(m2, Options{})
	if blockIndex(m2.Func("f"), "entry.t1") >= 0 {
		t.Fatal("cascade built without ControlFlow option")
	}
}

func TestVoteCorrectsInjectedFaults(t *testing.T) {
	// Inject a register flip at every dynamic register-writing
	// instruction of a small run. TMR must never produce a wrong
	// output, and most injections must be actively corrected (the vote
	// rewrote a diverging replica) rather than merely masked.
	src := `
global g bytes=8
func main(1) {
entry:
  v1 = add #40, #2
  v2 = mul v1, #10
  store v0, v2
  v3 = load v0
  v4 = add v3, #7
  out v4
  ret
}
`
	m := mustParse(t, src)
	Apply(m, AllOptions())
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}

	ref := vm.New(m.Clone(), 1, vmQuiet())
	ref.Run(vm.ThreadSpec{Func: "main", Args: []uint64{4096}})
	if ref.Status() != vm.StatusOK {
		t.Fatalf("reference run: %v", ref.Status())
	}
	want := ref.Output()
	population := ref.Stats().RegWrites

	corrected := 0
	for idx := uint64(0); idx < population; idx++ {
		mm := vm.New(m.Clone(), 1, vmQuiet())
		mm.SetFaultPlan(&vm.FaultPlan{TargetIndex: idx, Mask: 1 << 17})
		mm.Run(vm.ThreadSpec{Func: "main", Args: []uint64{4096}})
		switch mm.Status() {
		case vm.StatusOK:
			got := mm.Output()
			if len(got) != len(want) || got[0] != want[0] {
				t.Fatalf("idx %d: SDC: out=%v want=%v", idx, got, want)
			}
			if mm.Stats().CorrectedFaults > 0 {
				corrected++
			}
		case vm.StatusILRDetected:
			// The store's reload check may fire for faults that hit the
			// single-copy memory path; detection is acceptable, SDC is not.
		default:
			t.Fatalf("idx %d: status %v (%s)", idx, mm.Status(), mm.Stats().CrashReason)
		}
	}
	if corrected == 0 {
		t.Fatal("no injection was ever corrected by a vote")
	}
}

func TestUnprotectedFunctionsSkipped(t *testing.T) {
	src := `
func libfn(1) unprotected {
entry:
  v1 = add v0, #1
  ret v1
}
func main(0) {
entry:
  v0 = call @libfn #5
  out v0
  ret
}
`
	m := mustParse(t, src)
	before := m.Func("libfn").NumInstrs()
	Apply(m, AllOptions())
	if got := m.Func("libfn").NumInstrs(); got != before {
		t.Fatalf("unprotected function transformed: %d -> %d", before, got)
	}
	if m.Func("main").NumInstrs() <= 3 {
		t.Fatal("protected main not transformed")
	}
}

func TestPeepholeElidesFreshTripleVotes(t *testing.T) {
	// call result -> out: the out would vote a triple that the replica
	// copies seeded one instruction earlier, so the peephole drops the
	// vote.
	src := `
func helper(0) local {
entry:
  ret #9
}
func f(0) {
entry:
  v0 = call @helper
  out v0
  ret
}
`
	m := mustParse(t, src)
	Apply(m, Options{})
	f := m.Func("f")
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Callee == "tmr.vote" {
				t.Fatalf("vote on a triple seeded by the previous instruction:\n%s", f)
			}
		}
	}
}

func TestStoreReloadDetectsMemoryFault(t *testing.T) {
	// The store tail (reload + compare) must exist: count the volatile
	// reload and the tx.check after each store.
	src := `
global g bytes=8
func f(1) {
entry:
  store v0, #77
  ret
}
`
	m := mustParse(t, src)
	Apply(m, AllOptions())
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	text := m.Func("f").String()
	if !strings.Contains(text, "tx.check") {
		t.Fatalf("store emitted no reload check:\n%s", text)
	}
}

// blockIndex returns the index of f's block called name, or -1.
func blockIndex(f *ir.Func, name string) int {
	for i, b := range f.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}
