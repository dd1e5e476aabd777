package opt

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

func TestConstantFolding(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = add #2, #3
  v1 = mul v0, #4
  v2 = cmp lt v1, #100
  out v1
  ret
}
`
	m := ir.MustParse(src)
	st := Apply(m)
	if st.Folded == 0 {
		t.Fatal("nothing folded")
	}
	// v1 must now be computed from constants; out's operand becomes
	// the literal 20 after propagation... out still references v1, but
	// v1's operands are constant. Run to confirm semantics.
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusOK || mach.Output()[0] != 20 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
	// Dead cmp removed.
	if strings.Contains(m.Func("main").String(), "cmp") {
		t.Errorf("dead cmp survived:\n%s", m.Func("main"))
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = div #1, #0
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusCrashed {
		t.Fatalf("trap optimized away: %v", mach.Status())
	}
}

func TestConstantBranchSimplification(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = cmp lt #1, #2
  br v0, yes, no
yes:
  out #1
  ret
no:
  out #0
  ret
}
`
	m := ir.MustParse(src)
	st := Apply(m)
	if st.BranchesCut == 0 || st.BlocksGone == 0 {
		t.Fatalf("branch not simplified: %+v\n%s", st, m.Func("main"))
	}
	f := m.Func("main")
	if blockIndex(f, "no") >= 0 {
		t.Errorf("unreachable block survived:\n%s", f)
	}
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusOK || mach.Output()[0] != 1 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
}

func TestPhiEdgeRemoval(t *testing.T) {
	src := `
func main(0) {
entry:
  br #1, a, b
a:
  jmp join
b:
  jmp join
join:
  v0 = phi #10 [a], #20 [b]
  out v0
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify after opt: %v\n%s", err, m.Func("main"))
	}
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusOK || mach.Output()[0] != 10 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
}

func TestVolatileShadowLoadsSurvive(t *testing.T) {
	// A volatile load whose result feeds only a check that is itself
	// "dead" must still survive: loads are never removed.
	src := `
global g bytes=8
func main(0) {
entry:
  v0 = load #4096 volatile
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	if !strings.Contains(m.Func("main").String(), "load") {
		t.Fatalf("volatile load removed:\n%s", m.Func("main"))
	}
}

func TestLoopPreserved(t *testing.T) {
	src := `
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v1 [loop]
  v1 = add v0, #1
  v2 = cmp lt v1, #50
  br v2, loop, done
done:
  out v1
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusOK || mach.Output()[0] != 50 {
		t.Fatalf("loop broken: status=%v out=%v", mach.Status(), mach.Output())
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{Folded: 1, DeadRemoved: 2, BlocksGone: 3, BranchesCut: 4}
	if s.Total() != 10 {
		t.Fatalf("Total = %d", s.Total())
	}
}

func TestFloatAndShiftFolding(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = fadd #1.5, #2.5
  v1 = fmul v0, #2.0
  v2 = fptosi v1
  v3 = shl #1, #6
  v4 = sar #-16, #2
  v5 = select #1, v2, v3
  v6 = add v5, v4
  out v6
  ret
}
`
	m := ir.MustParse(src)
	st := Apply(m)
	if st.Folded == 0 {
		t.Fatal("nothing folded")
	}
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	// fadd=4.0, fmul=8.0, fptosi=8, shl=64, sar(-16,2)=-4, select->8,
	// add 8 + (-4) = 4.
	if mach.Status() != vm.StatusOK || int64(mach.Output()[0]) != 4 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
}

func TestBranchWithEqualTargets(t *testing.T) {
	// br cond, x, x with constant cond: simplification must not drop
	// phi edges it still needs.
	src := `
func main(0) {
entry:
  br #1, next, next
next:
  v0 = phi #5 [entry]
  out v0
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusOK || mach.Output()[0] != 5 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
}

func TestOptimizerIdempotent(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = add #2, #3
  v1 = mul v0, #4
  br #1, a, b
a:
  out v1
  ret
b:
  out #0
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	first := m.String()
	st := Apply(m)
	if st.Total() != 0 {
		t.Fatalf("second Apply still rewrote: %+v", st)
	}
	if m.String() != first {
		t.Fatal("second Apply changed the module")
	}
}

func TestUnprotectedAndHardenedCodeUntouchedSemantics(t *testing.T) {
	// The optimizer must keep ILR-flagged instructions (they look dead
	// to a naive DCE: shadow values only feed checks).
	src := `
global g bytes=8
func main(0) {
entry:
  v0 = load #4096
  v1 = mov v0 !shadow
  v2 = cmp ne v0, v1 !check
  br v2, bad, good !detect
bad:
  call @ilr.fail
  trap
good:
  out v0
  ret
}
`
	m := ir.MustParse(src)
	Apply(m)
	text := m.Func("main").String()
	if !strings.Contains(text, "!shadow") || !strings.Contains(text, "!check") {
		t.Fatalf("optimizer removed hardening instrumentation:\n%s", text)
	}
	mach := vm.New(m, 1, vmQuiet())
	mach.Run(vm.ThreadSpec{Func: "main"})
	if mach.Status() != vm.StatusOK {
		t.Fatalf("status=%v", mach.Status())
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
