package ir

import (
	"testing"
)

// buildLoopFunc constructs the paper's Figure 2 example skeleton:
// a counter loop incrementing a global until it reaches 1000.
func buildLoopFunc(t testing.TB) *Module {
	t.Helper()
	m := NewModule()
	g := m.AddGlobal("c", 8)
	g.Init = []uint64{123}

	fb := NewFuncBuilder("foo", 0)
	entry := fb.Block("entry")
	loop := fb.Block("loop")
	end := fb.Block("end")

	m.Layout()
	fb.SetBlock(entry)
	cinit := fb.Load(ConstUint(g.Addr))
	fb.Jmp(loop)

	fb.SetBlock(loop)
	c := fb.Phi([]int{entry, loop}, []Operand{Reg(cinit), Reg(0)}) // patched below
	cnew := fb.Add(Reg(c), ConstInt(1))
	cnd := fb.Cmp(PredEQ, Reg(cnew), ConstInt(1000))
	fb.Br(Reg(cnd), end, loop)
	// Patch the phi's second incoming value to cnew.
	fb.Func().Blocks[loop].Instrs[0].Args[1] = Reg(cnew)

	fb.SetBlock(end)
	fb.Store(ConstUint(g.Addr), Reg(cnew))
	fb.Ret(Reg(cnew))

	m.AddFunc(fb.Done())
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestBuilderAndVerify(t *testing.T) {
	m := buildLoopFunc(t)
	f := m.Func("foo")
	if f == nil {
		t.Fatal("function foo missing")
	}
	if got := len(f.Blocks); got != 3 {
		t.Fatalf("blocks = %d, want 3", got)
	}
	if f.NumInstrs() != 8 {
		t.Fatalf("instrs = %d, want 8", f.NumInstrs())
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildLoopFunc(t)
	text := m.String()
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	text2 := m2.String()
	if text != text2 {
		t.Fatalf("round trip mismatch:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		"func f(0) {\nentry:\n  v0 = add #1\n}",              // wrong arity
		"func f(0) {\nentry:\n  v0 = add #1, #2\n}",          // no terminator
		"func f(0) {\nentry:\n  br v0, a, b\n}",              // undefined reg + unknown blocks
		"func f(0) {\nentry:\n  v0 = bogus #1, #2\n  ret\n}", // unknown op
		"global g\n", // malformed global
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseFloatsAndFlags(t *testing.T) {
	src := `
func f(1) local frame=8 {
entry:
  v1 = fadd v0, #1.5
  v2 = mov v1 !shadow
  v3 = cmp fne v1, v2 !check
  v4 = frameaddr 0
  store v4, v1
  v5 = load v4 volatile
  ret v5
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.Func("f")
	if !f.Attrs.Local {
		t.Error("local attribute lost")
	}
	ins := f.Blocks[0].Instrs
	if !ins[1].HasFlag(FlagShadow) {
		t.Error("shadow flag lost")
	}
	if !ins[2].HasFlag(FlagCheck) || ins[2].Pred != PredFNE {
		t.Error("check flag or predicate lost")
	}
	if !ins[5].Volatile {
		t.Error("volatile lost")
	}
	// Round trip again.
	if _, err := Parse(m.String()); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
}

func TestVerifyCatchesDuplicateDef(t *testing.T) {
	fb := NewFuncBuilder("f", 0)
	b := fb.Block("entry")
	fb.SetBlock(b)
	v := fb.Add(ConstInt(1), ConstInt(2))
	fb.Append(Instr{Op: OpMov, Res: v, Args: []Operand{ConstInt(3)}})
	fb.Ret()
	m := NewModule()
	m.AddFunc(fb.Done())
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted duplicate definition")
	}
}

func TestVerifyCatchesMissingPhiPred(t *testing.T) {
	src := `
func f(0) {
a:
  jmp c
b:
  jmp c
c:
  v0 = phi #1 [a], #2 [b]
  ret v0
}
`
	// Block b is unreachable but still a CFG predecessor; removing it
	// from the phi must fail verification.
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.Func("f")
	phi := &f.Blocks[2].Instrs[0]
	phi.Args = phi.Args[:1]
	phi.PhiPreds = phi.PhiPreds[:1]
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted phi missing a predecessor")
	}
}

func TestModuleCloneIsDeep(t *testing.T) {
	m := buildLoopFunc(t)
	c := m.Clone()
	// Mutate the clone; the original must be unaffected.
	c.Func("foo").Blocks[0].Instrs[0].Op = OpTrap
	if m.Func("foo").Blocks[0].Instrs[0].Op == OpTrap {
		t.Fatal("Clone shares instruction storage")
	}
	c.Globals[0].Init[0] = 999
	if m.Globals[0].Init[0] == 999 {
		t.Fatal("Clone shares global init storage")
	}
}

func TestLayoutAlignment(t *testing.T) {
	m := NewModule()
	a := m.AddGlobal("a", 8)
	b := m.AddGlobal("b", 16)
	b.Align = 64
	m.Layout()
	if a.Addr == 0 {
		t.Fatal("global a at address 0")
	}
	if b.Addr%64 != 0 {
		t.Fatalf("global b addr %#x not 64-aligned", b.Addr)
	}
	if m.HeapBase < b.Addr+uint64(b.Bytes) {
		t.Fatal("heap overlaps globals")
	}
	if m.HeapBase%64 != 0 {
		t.Fatal("heap base not line-aligned")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpBr.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("IsTerminator wrong")
	}
	if OpLoad.Replicable() || !OpAdd.Replicable() || OpCall.Replicable() {
		t.Error("Replicable wrong")
	}
	if !OpOut.Unfriendly() || OpStore.Unfriendly() {
		t.Error("Unfriendly wrong")
	}
	// Every op has a distinct printable name.
	seen := map[string]bool{}
	for op := OpMov; op <= OpTrap; op++ {
		s := op.String()
		if s == "op?" || seen[s] {
			t.Errorf("op %d has bad/duplicate name %q", op, s)
		}
		seen[s] = true
	}
}
