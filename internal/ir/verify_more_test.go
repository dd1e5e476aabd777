package ir

import (
	"strings"
	"testing"
)

// buildBad wraps a single instruction (plus a ret) into a module and
// verifies it, returning the error.
func verifyOne(nvalues int, frame int64, instrs ...Instr) error {
	f := &Func{Name: "f", NParams: 0, NValues: nvalues, FrameBytes: frame}
	instrs = append(instrs, Instr{Op: OpRet, Res: NoValue})
	f.Blocks = []*Block{{Name: "entry", Instrs: instrs}}
	m := NewModule()
	m.AddFunc(f)
	return Verify(m)
}

func TestVerifyShapeErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"mov arity", verifyOne(1, 0, Instr{Op: OpMov, Res: 0, Args: []Operand{ConstInt(1), ConstInt(2)}})},
		{"add arity", verifyOne(1, 0, Instr{Op: OpAdd, Res: 0, Args: []Operand{ConstInt(1)}})},
		{"select arity", verifyOne(1, 0, Instr{Op: OpSelect, Res: 0, Args: []Operand{ConstInt(1)}})},
		{"store with result", verifyOne(1, 0, Instr{Op: OpStore, Res: 0, Args: []Operand{ConstInt(8), ConstInt(1)}})},
		{"store arity", verifyOne(0, 0, Instr{Op: OpStore, Res: NoValue, Args: []Operand{ConstInt(8)}})},
		{"cas arity", verifyOne(1, 0, Instr{Op: OpARMW, RMW: RMWCAS, Res: 0, Args: []Operand{ConstInt(8), ConstInt(1)}})},
		{"frameaddr out of frame", verifyOne(1, 8, Instr{Op: OpFrameAddr, Res: 0, Off: 16})},
		{"frameaddr no frame", verifyOne(1, 0, Instr{Op: OpFrameAddr, Res: 0, Off: 8})},
		{"phi empty", verifyOne(1, 0, Instr{Op: OpPhi, Res: 0})},
		{"call empty callee", verifyOne(1, 0, Instr{Op: OpCall, Res: 0, Callee: ""})},
		{"call unknown", verifyOne(1, 0, Instr{Op: OpCall, Res: 0, Callee: "missing"})},
		{"callind no target", verifyOne(1, 0, Instr{Op: OpCallInd, Res: 0})},
		{"out arity", verifyOne(0, 0, Instr{Op: OpOut, Res: NoValue})},
		{"result out of range", verifyOne(1, 0, Instr{Op: OpAdd, Res: 5, Args: []Operand{ConstInt(1), ConstInt(2)}})},
		{"operand out of range", verifyOne(1, 0, Instr{Op: OpMov, Res: 0, Args: []Operand{Reg(9)}})},
		{"operand undefined", verifyOne(2, 0, Instr{Op: OpMov, Res: 0, Args: []Operand{Reg(1)}})},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: Verify accepted invalid IR", c.name)
		}
	}
}

func TestVerifyBlockErrors(t *testing.T) {
	// Empty block.
	f := &Func{Name: "f", NValues: 0}
	f.Blocks = []*Block{{Name: "entry", Instrs: []Instr{{Op: OpRet, Res: NoValue}}}, {Name: "dead"}}
	m := NewModule()
	m.AddFunc(f)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "empty block") {
		t.Errorf("empty block not rejected: %v", err)
	}
	// No blocks at all.
	m2 := NewModule()
	m2.AddFunc(&Func{Name: "g"})
	if err := Verify(m2); err == nil || !strings.Contains(err.Error(), "no blocks") {
		t.Errorf("blockless function not rejected: %v", err)
	}
	// Branch target out of range.
	f3 := &Func{Name: "h", NValues: 0}
	f3.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpBr, Res: NoValue, Args: []Operand{ConstInt(1)}, Blocks: []int{0, 7}},
	}}}
	m3 := NewModule()
	m3.AddFunc(f3)
	if err := Verify(m3); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("wild branch target not rejected: %v", err)
	}
	// Jmp with wrong target count.
	f4 := &Func{Name: "k", NValues: 0}
	f4.Blocks = []*Block{{Name: "entry", Instrs: []Instr{
		{Op: OpJmp, Res: NoValue, Blocks: []int{0, 0}},
	}}}
	m4 := NewModule()
	m4.AddFunc(f4)
	if err := Verify(m4); err == nil {
		t.Error("jmp with two targets accepted")
	}
}

func TestVerifyCallArityAgainstDefinition(t *testing.T) {
	src := `
func callee(2) {
entry:
  ret v0
}
func main(0) {
entry:
  v0 = call @callee #1
  ret
}
`
	if _, err := Parse(src); err == nil {
		t.Fatal("call arity mismatch accepted")
	}
}

func TestModuleLookups(t *testing.T) {
	m := NewModule()
	if m.Func("nope") != nil || m.FuncIndex("nope") != -1 {
		t.Error("missing function lookup should be nil/-1")
	}
	if m.Global("nope") != nil {
		t.Error("missing global lookup should be nil")
	}
	g := m.AddGlobal("g", 4) // rounds to 8
	if g.Bytes != 8 {
		t.Errorf("size not rounded: %d", g.Bytes)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate global did not panic")
			}
		}()
		m.AddGlobal("g", 8)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate function did not panic")
			}
		}()
		fb := NewFuncBuilder("f", 0)
		b := fb.Block("entry")
		fb.SetBlock(b)
		fb.Ret()
		m.AddFunc(fb.Done())
		m.AddFunc(fb.Done())
	}()
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("param out of range", func() {
		NewFuncBuilder("f", 1).Param(3)
	})
	expectPanic("append without block", func() {
		NewFuncBuilder("f", 0).Add(ConstInt(1), ConstInt(2))
	})
	expectPanic("ret with two values", func() {
		fb := NewFuncBuilder("f", 0)
		fb.SetBlock(fb.Block("entry"))
		fb.Ret(ConstInt(1), ConstInt(2))
	})
	expectPanic("phi mismatch", func() {
		fb := NewFuncBuilder("f", 0)
		fb.SetBlock(fb.Block("entry"))
		fb.Phi([]int{0}, []Operand{ConstInt(1), ConstInt(2)})
	})
	expectPanic("MustParse", func() {
		MustParse("not ir")
	})
}

func TestIsIntrinsicList(t *testing.T) {
	for _, name := range []string{"tx.begin", "tx.end", "tx.cond_split", "tx.counter_inc",
		"ilr.fail", "lock.acquire", "lock.acquire_elide", "malloc", "thread.id",
		"barrier.wait", "sys.write"} {
		if !IsIntrinsic(name) {
			t.Errorf("%s not recognized as intrinsic", name)
		}
	}
	if IsIntrinsic("printf") || IsIntrinsic("") {
		t.Error("non-intrinsics recognized")
	}
}
