package ilr

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

// figure1 is the paper's Figure 1a: z = add x, y; ret z.
const figure1 = `
func f(2) {
entry:
  v2 = add v0, v1
  ret v2
}
`

func TestFigure1Transformation(t *testing.T) {
	m := mustParse(t, figure1)
	Apply(m, Options{})
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := m.Func("f")
	text := f.String()
	// The shadow add must exist (Figure 1b line "z2 = add x2, y2").
	shadowAdds := 0
	checks := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpAdd && in.HasFlag(ir.FlagShadow) {
				shadowAdds++
			}
			if in.Op == ir.OpCmp && in.HasFlag(ir.FlagCheck) {
				checks++
			}
		}
	}
	if shadowAdds != 1 {
		t.Errorf("shadow adds = %d, want 1\n%s", shadowAdds, text)
	}
	if checks != 1 {
		t.Errorf("checks before ret = %d, want 1\n%s", checks, text)
	}
	if !strings.Contains(text, "ilr.fail") {
		t.Errorf("no detection block:\n%s", text)
	}
}

func TestSemanticPreservation(t *testing.T) {
	// A program mixing loops, calls, memory, floats and branches must
	// produce identical output before and after ILR, under every
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
		{SharedMem: true},
		{SharedMem: true, ControlFlow: true},
		{SharedMem: true, ControlFlow: true, FaultProp: true},
		AllOptions(),
		{ControlFlow: true, FaultProp: true},
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
		// ILR must increase instruction count substantially.
		if m.NumInstrs() <= native.NumInstrs() {
			t.Fatalf("opts[%d]: no instructions added", oi)
		}
	}
}

func vmQuiet() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

func TestControlFlowShadowBlocks(t *testing.T) {
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
	strue := blockIndex(f, "entry.strue")
	sfalse := blockIndex(f, "entry.sfalse")
	if strue < 0 || sfalse < 0 {
		t.Fatalf("shadow blocks missing:\n%s", f)
	}
	// Shadow blocks test the shadow condition and route mismatches to
	// the detect block.
	st := f.Blocks[strue].Terminator()
	if st.Op != ir.OpBr || !st.HasFlag(ir.FlagShadow) {
		t.Fatalf("strue terminator wrong: %+v", st)
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
}

func TestNaiveBranchCheck(t *testing.T) {
	src := `
func f(1) {
entry:
  v1 = cmp gt v0, #5
  br v1, yes, no
yes:
  ret #1
no:
  ret #0
}
`
	m := mustParse(t, src)
	Apply(m, Options{}) // no control-flow opt: Figure 4a
	f := m.Func("f")
	if blockIndex(f, "entry.strue") >= 0 {
		t.Fatal("shadow blocks created without ControlFlow option")
	}
	// There must be a check on the branch condition.
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].HasFlag(ir.FlagCheck) {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no condition check inserted:\n%s", f)
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

func TestFaultPropCheckOnCheckFreeLoop(t *testing.T) {
	// The Figure 2 shape: a loop whose body contains no stores (the
	// compiler hoisted them); the induction variable needs an explicit
	// fault-propagation check.
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
  ret
}
`
	m := mustParse(t, src)
	Apply(m, AllOptions())
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	found := 0
	for _, b := range m.Func("foo").Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpCmp && in.HasFlag(ir.FlagCheck|ir.FlagFaultProp) {
				found++
			}
		}
	}
	// Two header phis (master indvar + shadow indvar)... the check is
	// emitted per master phi: master and shadow phi both produce
	// checks since both are phis of the transformed header.
	if found == 0 {
		t.Fatalf("no fault-propagation checks inserted:\n%s", m.Func("foo"))
	}

	// A loop WITH a store in the body must not get the check.
	src2 := `
global c bytes=8
func bar(1) {
entry:
  jmp loop
loop:
  v1 = phi #0 [entry], v2 [loop]
  v2 = add v1, #1
  store v0, v2
  v3 = cmp lt v2, #100
  br v3, loop, end
end:
  ret
}
`
	m2 := mustParse(t, src2)
	Apply(m2, AllOptions())
	for _, b := range m2.Func("bar").Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].HasFlag(ir.FlagFaultProp) {
				t.Fatalf("fault-prop check added to a loop with in-body checks:\n%s", m2.Func("bar"))
			}
		}
	}
}

// countChecks counts the master/shadow compares in f.
func countChecks(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCmp && b.Instrs[i].HasFlag(ir.FlagCheck) {
				n++
			}
		}
	}
	return n
}

func TestPeepholeRemovesRedundantCheck(t *testing.T) {
	// load x; out x with unoptimized loads (shadow = mov of master):
	// the load's address check follows the parameter's shadow copy and
	// the out's check follows the loaded value's, so neither can see a
	// divergence and the peephole drops both.
	src := `
global g bytes=8
func f(1) {
entry:
  v1 = load v0
  out v1
  ret
}
`
	m := mustParse(t, src)
	Apply(m, Options{})
	if f := m.Func("f"); countChecks(f) != 0 || len(f.Blocks) != 1 {
		t.Fatalf("peephole left a check behind a fresh shadow copy:\n%s", f)
	}
}

func TestAtomicsUseExpensiveScheme(t *testing.T) {
	src := `
global g bytes=8
func f(1) {
entry:
  v1 = aload v0
  astore v0, v1
  v2 = armw add v0, #1
  ret
}
`
	m := mustParse(t, src)
	Apply(m, AllOptions())
	f := m.Func("f")
	// Even with SharedMem on, atomics are not duplicated: the aload's
	// shadow is a mov of its master, and the accesses get the Figure 3a
	// checks. The peephole drops the two that follow a fresh shadow
	// copy (the aload address and the astore value); the astore and
	// armw addresses keep theirs.
	if checks := countChecks(f); checks != 2 {
		t.Fatalf("atomic accesses: %d checks, want 2:\n%s", checks, f)
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpALoad && in.HasFlag(ir.FlagShadow) {
				t.Fatalf("aload duplicated under SharedMem:\n%s", f)
			}
		}
	}
}

func TestDetectionTriggersOnInjectedFault(t *testing.T) {
	// Corrupt the master value right before a store: ILR must detect
	// (program terminates ILR-detected rather than producing output).
	src := `
global g bytes=8
func main(1) {
entry:
  v1 = add #40, #2
  v2 = mul v1, #10
  store v0, v2
  v3 = load v0
  out v3
  ret
}
`
	m := mustParse(t, src)
	Apply(m, Options{}) // unoptimized: check before store
	mach := vm.New(m, 1, vmQuiet())
	// Find the dynamic index of the master mul (register writer #?):
	// entry: mov v0s, mov? params... Inject into every index until one
	// trips the detector; at least one must.
	detected := false
	for idx := uint64(0); idx < 12 && !detected; idx++ {
		mm := vm.New(m.Clone(), 1, vmQuiet())
		plan := &vm.FaultPlan{TargetIndex: idx, Mask: 1 << 17}
		mm.SetFaultPlan(plan)
		mm.Run(vm.ThreadSpec{Func: "main", Args: []uint64{4096}})
		if mm.Status() == vm.StatusILRDetected {
			detected = true
		}
	}
	_ = mach
	if !detected {
		t.Fatal("no injected fault was ever detected")
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

// flowCases holds one small function per op class; op is the
// instruction counted in the shadow flow and want its count there.
// Every function has no parameters, so no parameter copies blur the
// counts.
var flowCases = []struct {
	name string
	src  string
	op   ir.Op
	want int
}{
	{"replicable", "v0 = add #40, #2\n  ret v0", ir.OpAdd, 1},
	{"load", "v0 = load #4096\n  ret v0", ir.OpLoad, 1},
	{"aload", "v0 = aload #4096\n  ret v0", ir.OpMov, 1},
	{"store", "v0 = add #1, #2\n  store #4096, v0\n  ret", ir.OpLoad, 1}, // the shadow reload
	{"astore", "v0 = add #1, #2\n  astore #4096, v0\n  ret", ir.OpAStore, 0},
	{"armw", "v0 = armw add #4096, #1\n  ret v0", ir.OpMov, 1},
	{"call", "v0 = call @h\n  v1 = add v0, #1\n  ret v1", ir.OpMov, 1},
	{"out", "v0 = add #1, #2\n  out v0\n  ret", ir.OpOut, 0},
	{"ret", "v0 = add #1, #2\n  ret v0", ir.OpRet, 0},
	{"br", "v0 = add #3, #4\n  v1 = cmp gt v0, #5\n  br v1, yes, no\nyes:\n  ret #1\nno:\n  ret #0", ir.OpBr, 2}, // .strue, .sfalse
	{"phi", "jmp loop\nloop:\n  v0 = phi #0 [entry], v1 [loop]\n  v1 = add v0, #1\n  v2 = cmp lt v0, #4\n  br v2, loop, done\ndone:\n  ret v1", ir.OpPhi, 1},
}

// TestShadowFlow checks that every shadow instruction carries
// FlagShadow and never FlagShadow2, that copies from the master carry
// FlagReplica as well, and that shadow instructions read only shadow
// registers. Fault campaigns pick -flow shadow by these flags.
func TestShadowFlow(t *testing.T) {
	for _, c := range flowCases {
		t.Run(c.name, func(t *testing.T) {
			src := "global g bytes=8\nfunc h(0) local {\nentry:\n  ret #9\n}\nfunc f(0) {\nentry:\n  " + c.src + "\n}\n"
			m := mustParse(t, src)
			n := m.Func("f").NValues
			Apply(m, AllOptions())
			if err := ir.Verify(m); err != nil {
				t.Fatalf("verify: %v", err)
			}
			f := m.Func("f")
			got := 0
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if checkShadowFlags(t, in, n) && in.Op == c.op {
						got++
					}
				}
			}
			if got != c.want {
				t.Errorf("shadow %s count = %d, want %d\n%s", c.op, got, c.want, f)
			}
		})
	}
}

// checkShadowFlags reports whether in is flagged shadow and reports an
// instruction whose flags disagree with the registers it defines or
// branches on. n is the function's value count before the pass.
func checkShadowFlags(t *testing.T, in *ir.Instr, n int) bool {
	t.Helper()
	shadow := in.HasFlag(ir.FlagShadow)
	if in.Flags&ir.FlagShadow2 != 0 {
		t.Errorf("%s v%d: ILR flagged a second shadow flow", in.Op, in.Res)
	}
	isShadow := func(v ir.ValueID) bool { return int(v) >= n && int(v) < 2*n }
	fresh := func(v ir.ValueID) bool { return int(v) >= 2*n } // check results, reloads
	var defines bool
	switch {
	case in.Res != ir.NoValue && !fresh(in.Res):
		defines = isShadow(in.Res)
	case in.Op == ir.OpBr && !in.Args[0].IsConst && !fresh(in.Args[0].Reg):
		defines = isShadow(in.Args[0].Reg)
	default:
		// Only the store reload, a volatile load, is flagged without
		// defining a shadow value.
		if shadow && !(in.Op == ir.OpLoad && in.Volatile) {
			t.Errorf("%s v%d: flagged shadow but defines no shadow value", in.Op, in.Res)
		}
		return shadow
	}
	if shadow != defines {
		t.Errorf("%s v%d: FlagShadow = %v, its registers say %v", in.Op, in.Res, shadow, defines)
	}
	isCopy := in.Op == ir.OpMov && defines && !in.Args[0].IsConst && !isShadow(in.Args[0].Reg)
	if in.HasFlag(ir.FlagReplica) != isCopy {
		t.Errorf("%s v%d: FlagReplica = %v, want %v", in.Op, in.Res, in.HasFlag(ir.FlagReplica), isCopy)
	}
	for _, a := range in.Args {
		if !a.IsConst && !isCopy && isShadow(a.Reg) != defines {
			t.Errorf("%s v%d: reads %s across flows", in.Op, in.Res, a)
		}
	}
	return shadow
}
