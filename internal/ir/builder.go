package ir

// FuncBuilder provides a convenient API for constructing IR functions.
// It tracks the current insertion block; instruction helpers append to
// it and return the result register (or NoValue).
//
// Typical use:
//
//	fb := ir.NewFuncBuilder("sum", 2)
//	entry := fb.Block("entry")
//	fb.SetBlock(entry)
//	s := fb.Add(ir.Reg(fb.Param(0)), ir.Reg(fb.Param(1)))
//	fb.Ret(ir.Reg(s))
//	f := fb.Done()
type FuncBuilder struct {
	f    *Func
	cur  int   // current block index, -1 if unset
	line int32 // source line stamped onto appended instructions
}

// NewFuncBuilder starts a function with the given name and parameter
// count. Parameters receive ValueIDs 0..nparams-1.
func NewFuncBuilder(name string, nparams int) *FuncBuilder {
	return &FuncBuilder{
		f:   &Func{Name: name, NParams: nparams, NValues: nparams},
		cur: -1,
	}
}

// Func returns the function under construction.
func (fb *FuncBuilder) Func() *Func { return fb.f }

// Done returns the completed function.
func (fb *FuncBuilder) Done() *Func { return fb.f }

// Param returns the ValueID of parameter i.
func (fb *FuncBuilder) Param(i int) ValueID {
	if i < 0 || i >= fb.f.NParams {
		panic("ir: parameter index out of range")
	}
	return ValueID(i)
}

// Block appends a new empty block and returns its index. It does not
// change the insertion point.
func (fb *FuncBuilder) Block(name string) int {
	fb.f.Blocks = append(fb.f.Blocks, &Block{Name: name})
	return len(fb.f.Blocks) - 1
}

// SetBlock moves the insertion point to block b.
func (fb *FuncBuilder) SetBlock(b int) { fb.cur = b }

// SetLine sets the source line stamped onto subsequently appended
// instructions (0 disables stamping). Front ends call it once per
// lowered statement so the profiler can attribute dynamic cost to
// source lines.
func (fb *FuncBuilder) SetLine(line int) { fb.line = int32(line) }

// CurBlock returns the current insertion block index.
func (fb *FuncBuilder) CurBlock() int { return fb.cur }

// Alloca reserves n bytes of frame space (8-byte aligned) and returns
// the byte offset; pair with FrameAddr to obtain the address.
func (fb *FuncBuilder) Alloca(n int64) int64 {
	if n%8 != 0 {
		n += 8 - n%8
	}
	off := fb.f.FrameBytes
	fb.f.FrameBytes += n
	return off
}

// Append adds a raw instruction to the current block, allocating a
// result register if the op produces one and in.Res is NoValue-queued.
func (fb *FuncBuilder) Append(in Instr) ValueID {
	if fb.cur < 0 {
		panic("ir: no insertion block")
	}
	if in.Line == 0 {
		in.Line = fb.line
	}
	b := fb.f.Blocks[fb.cur]
	b.Instrs = append(b.Instrs, in)
	return in.Res
}

func (fb *FuncBuilder) emit(op Op, args ...Operand) ValueID {
	res := fb.f.NewValue()
	fb.Append(Instr{Op: op, Res: res, Args: args})
	return res
}

// Add emits integer addition.
func (fb *FuncBuilder) Add(a, b Operand) ValueID { return fb.emit(OpAdd, a, b) }

// Sub emits integer subtraction.
func (fb *FuncBuilder) Sub(a, b Operand) ValueID { return fb.emit(OpSub, a, b) }

// Mul emits integer multiplication.
func (fb *FuncBuilder) Mul(a, b Operand) ValueID { return fb.emit(OpMul, a, b) }

// Div emits signed integer division.
func (fb *FuncBuilder) Div(a, b Operand) ValueID { return fb.emit(OpDiv, a, b) }

// Rem emits signed integer remainder.
func (fb *FuncBuilder) Rem(a, b Operand) ValueID { return fb.emit(OpRem, a, b) }

// And emits bitwise and.
func (fb *FuncBuilder) And(a, b Operand) ValueID { return fb.emit(OpAnd, a, b) }

// Or emits bitwise or.
func (fb *FuncBuilder) Or(a, b Operand) ValueID { return fb.emit(OpOr, a, b) }

// Xor emits bitwise xor.
func (fb *FuncBuilder) Xor(a, b Operand) ValueID { return fb.emit(OpXor, a, b) }

// Shl emits a left shift.
func (fb *FuncBuilder) Shl(a, b Operand) ValueID { return fb.emit(OpShl, a, b) }

// Shr emits a logical right shift.
func (fb *FuncBuilder) Shr(a, b Operand) ValueID { return fb.emit(OpShr, a, b) }

// Not emits bitwise complement.
func (fb *FuncBuilder) Not(a Operand) ValueID { return fb.emit(OpNot, a) }

// FAdd emits float addition.
func (fb *FuncBuilder) FAdd(a, b Operand) ValueID { return fb.emit(OpFAdd, a, b) }

// FMul emits float multiplication.
func (fb *FuncBuilder) FMul(a, b Operand) ValueID { return fb.emit(OpFMul, a, b) }

// FDiv emits float division.
func (fb *FuncBuilder) FDiv(a, b Operand) ValueID { return fb.emit(OpFDiv, a, b) }

// FSqrt emits float square root.
func (fb *FuncBuilder) FSqrt(a Operand) ValueID { return fb.emit(OpFSqrt, a) }

// FExp emits e^x.
func (fb *FuncBuilder) FExp(a Operand) ValueID { return fb.emit(OpFExp, a) }

// FLog emits natural log.
func (fb *FuncBuilder) FLog(a Operand) ValueID { return fb.emit(OpFLog, a) }

// SIToFP converts a signed integer to float.
func (fb *FuncBuilder) SIToFP(a Operand) ValueID { return fb.emit(OpSIToFP, a) }

// FPToSI converts a float to signed integer.
func (fb *FuncBuilder) FPToSI(a Operand) ValueID { return fb.emit(OpFPToSI, a) }

// Cmp emits a comparison with the given predicate.
func (fb *FuncBuilder) Cmp(p Pred, a, b Operand) ValueID {
	res := fb.f.NewValue()
	fb.Append(Instr{Op: OpCmp, Res: res, Pred: p, Args: []Operand{a, b}})
	return res
}

// Select emits cond ? a : b.
func (fb *FuncBuilder) Select(cond, a, b Operand) ValueID {
	return fb.emit(OpSelect, cond, a, b)
}

// Load emits a regular load from addr.
func (fb *FuncBuilder) Load(addr Operand) ValueID { return fb.emit(OpLoad, addr) }

// Store emits a regular store of val to addr.
func (fb *FuncBuilder) Store(addr, val Operand) {
	fb.Append(Instr{Op: OpStore, Res: NoValue, Args: []Operand{addr, val}})
}

// ALoad emits an atomic load.
func (fb *FuncBuilder) ALoad(addr Operand) ValueID { return fb.emit(OpALoad, addr) }

// AStore emits an atomic store.
func (fb *FuncBuilder) AStore(addr, val Operand) {
	fb.Append(Instr{Op: OpAStore, Res: NoValue, Args: []Operand{addr, val}})
}

// ARMW emits an atomic read-modify-write and returns the old value.
// For RMWCAS, args are (addr, expected, new).
func (fb *FuncBuilder) ARMW(kind RMWKind, args ...Operand) ValueID {
	res := fb.f.NewValue()
	fb.Append(Instr{Op: OpARMW, Res: res, RMW: kind, Args: args})
	return res
}

// FrameAddr returns the address of frame offset off.
func (fb *FuncBuilder) FrameAddr(off int64) ValueID {
	res := fb.f.NewValue()
	fb.Append(Instr{Op: OpFrameAddr, Res: res, Off: off})
	return res
}

// Phi emits a phi node; preds and vals must be parallel.
func (fb *FuncBuilder) Phi(preds []int, vals []Operand) ValueID {
	if len(preds) != len(vals) {
		panic("ir: phi preds/vals mismatch")
	}
	res := fb.f.NewValue()
	fb.Append(Instr{
		Op: OpPhi, Res: res,
		Args:     append([]Operand(nil), vals...),
		PhiPreds: append([]int(nil), preds...),
	})
	return res
}

// Call emits a direct call that produces a value.
func (fb *FuncBuilder) Call(callee string, args ...Operand) ValueID {
	res := fb.f.NewValue()
	fb.Append(Instr{Op: OpCall, Res: res, Callee: callee, Args: args})
	return res
}

// CallVoid emits a direct call with no result.
func (fb *FuncBuilder) CallVoid(callee string, args ...Operand) {
	fb.Append(Instr{Op: OpCall, Res: NoValue, Callee: callee, Args: args})
}

// CallInd emits an indirect call through a function-table index.
func (fb *FuncBuilder) CallInd(target Operand, args ...Operand) ValueID {
	res := fb.f.NewValue()
	all := append([]Operand{target}, args...)
	fb.Append(Instr{Op: OpCallInd, Res: res, Args: all})
	return res
}

// Out externalizes a value to the program output stream.
func (fb *FuncBuilder) Out(v Operand) {
	fb.Append(Instr{Op: OpOut, Res: NoValue, Args: []Operand{v}})
}

// Br emits a conditional branch terminator.
func (fb *FuncBuilder) Br(cond Operand, then, els int) {
	fb.Append(Instr{Op: OpBr, Res: NoValue, Args: []Operand{cond}, Blocks: []int{then, els}})
}

// Jmp emits an unconditional branch terminator.
func (fb *FuncBuilder) Jmp(target int) {
	fb.Append(Instr{Op: OpJmp, Res: NoValue, Blocks: []int{target}})
}

// Ret emits a return terminator (pass zero or one operand).
func (fb *FuncBuilder) Ret(vals ...Operand) {
	if len(vals) > 1 {
		panic("ir: ret takes at most one value")
	}
	fb.Append(Instr{Op: OpRet, Res: NoValue, Args: vals})
}
