package cfg

import (
	"testing"

	"repro/internal/ir"
)

// diamond builds: entry -> {left,right} -> join -> exit
func diamond(t *testing.T) *ir.Func {
	t.Helper()
	src := `
func f(1) {
entry:
  br v0, left, right
left:
  v1 = add v0, #1
  jmp join
right:
  v2 = add v0, #2
  jmp join
join:
  v3 = phi v1 [left], v2 [right]
  ret v3
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m.Func("f")
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	g := New(f)
	entry, left, right, join := 0, 1, 2, 3
	if g.IDom[left] != entry || g.IDom[right] != entry {
		t.Errorf("IDom(left/right) = %d/%d, want entry", g.IDom[left], g.IDom[right])
	}
	if g.IDom[join] != entry {
		t.Errorf("IDom(join) = %d, want entry", g.IDom[join])
	}
	if !g.Dominates(entry, join) {
		t.Error("entry must dominate join")
	}
	if g.Dominates(left, join) {
		t.Error("left must not dominate join")
	}
	if len(New(f).Loops()) != 0 {
		t.Error("diamond has no loops")
	}
}

func nestedLoops(t *testing.T) *ir.Func {
	t.Helper()
	src := `
func f(1) {
entry:
  jmp outer
outer:
  v1 = phi #0 [entry], v5 [latchO]
  jmp inner
inner:
  v2 = phi #0 [outer], v3 [inner]
  v3 = add v2, #1
  v4 = cmp lt v3, #10
  br v4, inner, latchO
latchO:
  v5 = add v1, #1
  v6 = cmp lt v5, #10
  br v6, outer, exit
exit:
  ret v5
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m.Func("f")
}

func TestNestedLoops(t *testing.T) {
	f := nestedLoops(t)
	g := New(f)
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	outer, inner := loops[0], loops[1]
	if f.Blocks[outer.Header].Name != "outer" || f.Blocks[inner.Header].Name != "inner" {
		t.Fatalf("headers = %s, %s", f.Blocks[outer.Header].Name, f.Blocks[inner.Header].Name)
	}
	if inner.Parent != 0 || outer.Parent != -1 {
		t.Errorf("nesting: inner.Parent=%d outer.Parent=%d", inner.Parent, outer.Parent)
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths: outer=%d inner=%d", outer.Depth, inner.Depth)
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer loop must contain inner header")
	}
	if inner.Contains(outer.Header) {
		t.Error("inner loop must not contain outer header")
	}
	inm := InnermostLoops(loops)
	if len(inm) != 1 || inm[0] != inner {
		t.Error("InnermostLoops should return only the inner loop")
	}
}

func TestLongestPathToLatch(t *testing.T) {
	// Loop body with a branch: header(3 instrs) -> {short(1), long(3)} -> latch(2)
	src := `
func f(0) {
entry:
  jmp header
header:
  v0 = phi #0 [entry], v6 [latch]
  v1 = add v0, #1
  br v1, short, long
short:
  jmp latch
long:
  v2 = add v1, #1
  v3 = add v2, #1
  jmp latch
latch:
  v6 = add v1, #1
  v7 = cmp lt v6, #5
  br v7, header, exit
exit:
  ret
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.Func("f")
	g := New(f)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	latch := blockIndex(f, "latch")
	if len(l.Latches) != 1 || l.Latches[0] != latch {
		t.Fatalf("latches = %v", l.Latches)
	}
	// header(3) + long(3) + latch(3) = 9
	if got := g.LongestPathToLatch(l, latch); got != 9 {
		t.Errorf("LongestPathToLatch = %d, want 9", got)
	}
}

func TestUnreachableBlockHandled(t *testing.T) {
	src := `
func f(0) {
entry:
  ret
dead:
  jmp dead
`
	// Note: dead is an unreachable self-loop.
	m, err := ir.Parse(src + "}\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.Func("f")
	g := New(f)
	if g.Reachable(blockIndex(f, "dead")) {
		t.Error("dead block reported reachable")
	}
	// Loops over unreachable code should not panic; dead's back edge is
	// ignored because dominance is undefined there.
	_ = g.Loops()
}

func TestRPOStartsAtEntry(t *testing.T) {
	f := nestedLoops(t)
	g := New(f)
	if len(g.RPO) == 0 || g.RPO[0] != 0 {
		t.Fatalf("RPO = %v, want entry first", g.RPO)
	}
	// RPO visits every reachable block exactly once.
	seen := map[int]bool{}
	for _, b := range g.RPO {
		if seen[b] {
			t.Fatalf("block %d repeated in RPO", b)
		}
		seen[b] = true
	}
	if len(seen) != len(f.Blocks) {
		t.Fatalf("RPO covers %d blocks, want %d", len(seen), len(f.Blocks))
	}
}

func TestVerifySSAAcceptsValid(t *testing.T) {
	f := nestedLoops(t)
	if err := VerifySSA(f); err != nil {
		t.Fatal(err)
	}
	f2 := diamond(t)
	if err := VerifySSA(f2); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySSARejectsNonDominatingUse(t *testing.T) {
	// v1 is defined only on the left arm but used in the join.
	src := `
func f(1) {
entry:
  br v0, left, right
left:
  v1 = add v0, #1
  jmp join
right:
  jmp join
join:
  v2 = add v1, #1
  ret v2
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifySSA(m.Funcs[0]); err == nil {
		t.Fatal("VerifySSA accepted a non-dominating use")
	}
}

func TestVerifySSARejectsUseBeforeDefSameBlock(t *testing.T) {
	f := &ir.Func{Name: "f", NParams: 0, NValues: 2}
	f.Blocks = []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
		{Op: ir.OpAdd, Res: 0, Args: []ir.Operand{ir.Reg(1), ir.ConstInt(1)}},
		{Op: ir.OpAdd, Res: 1, Args: []ir.Operand{ir.ConstInt(1), ir.ConstInt(2)}},
		{Op: ir.OpRet, Res: ir.NoValue},
	}}}
	if err := VerifySSA(f); err == nil {
		t.Fatal("VerifySSA accepted use-before-def")
	}
}

func TestVerifySSARejectsBadPhiEdge(t *testing.T) {
	// The phi pulls v1 along the edge from "right", where it is not
	// available.
	src := `
func f(1) {
entry:
  br v0, left, right
left:
  v1 = add v0, #1
  jmp join
right:
  jmp join
join:
  v2 = phi v1 [left], v1 [right]
  ret v2
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := VerifySSA(m.Funcs[0]); err == nil {
		t.Fatal("VerifySSA accepted a phi edge without availability")
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
