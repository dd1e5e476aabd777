// Package ir defines the intermediate representation used by the HAFT
// compiler passes and the machine simulator.
//
// The IR is a small SSA-like register machine language modeled on the
// subset of LLVM IR that the published HAFT passes operate on: typed
// 64-bit virtual registers, basic blocks with explicit terminators, phi
// nodes, loads/stores with an atomic flavor, calls, and a handful of
// arithmetic operations. All values are 64-bit words; floating-point
// operations interpret the word as an IEEE-754 float64. This uniform
// representation makes the single-event-upset fault model (an XOR of a
// random mask into a register) natural to implement.
package ir

// Op identifies an IR operation.
type Op uint8

// The operation set. Ops marked "terminator" must appear only as the
// final instruction of a block.
const (
	OpInvalid Op = iota

	// Data movement.
	OpMov // res = arg0 (register-to-register move; used by ILR shadow copies)

	// Integer arithmetic and logic (two operands unless noted).
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; division by zero traps (OS-detected crash)
	OpRem // signed; division by zero traps
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpNot // unary bitwise complement

	// Floating point (operands are float64 bit patterns).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt // unary
	OpFExp  // unary, e^x
	OpFLog  // unary, natural log
	OpFAbs  // unary

	// Conversions.
	OpSIToFP // signed int -> float64
	OpFPToSI // float64 -> signed int (truncating)

	// Comparison: res = 1 if pred(arg0, arg1) else 0. The predicate is
	// held in Instr.Pred and selects int or float comparison.
	OpCmp

	// Conditional select: res = arg0 != 0 ? arg1 : arg2.
	OpSelect

	// Memory. Addresses are byte addresses and must be 8-byte aligned.
	OpLoad   // res = mem[arg0]
	OpStore  // mem[arg0] = arg1
	OpALoad  // atomic load (sequentially consistent)
	OpAStore // atomic store
	OpARMW   // atomic read-modify-write; kind in Instr.RMW

	// Frame address: res = stack frame base + Instr.Off (bytes).
	OpFrameAddr

	// Phi node: res = value flowing from the predecessor block actually
	// taken. Instr.PhiPreds holds block indices parallel to Args.
	OpPhi

	// Call: res = Callee(args...). Direct calls only; indirect calls are
	// modeled with OpCallInd whose callee index is arg0 into the module
	// function table (used by the SQLite-like case study).
	OpCall
	OpCallInd

	// Externalization: append arg0 to the program output stream. This is
	// an "unfriendly" operation for hardware transactions (it models I/O
	// through a system call).
	OpOut

	// Terminators.
	OpBr   // conditional branch: arg0 != 0 -> Blocks[0] else Blocks[1]
	OpJmp  // unconditional: Blocks[0]
	OpRet  // return (0 or 1 argument)
	OpTrap // abnormal termination (models an illegal instruction)
)

// RMWKind selects the operation performed by OpARMW.
type RMWKind uint8

const (
	RMWAdd  RMWKind = iota // res = old; mem[addr] += val
	RMWXchg                // res = old; mem[addr] = val
	RMWCAS                 // res = old; if old == expected { mem[addr] = new }
)

// Pred is a comparison predicate for OpCmp.
type Pred uint8

const (
	PredEQ  Pred = iota // ==
	PredNE              // !=
	PredLT              // signed <
	PredLE              // signed <=
	PredGT              // signed >
	PredGE              // signed >=
	PredULT             // unsigned <
	PredUGE             // unsigned >=
	PredFEQ             // float ==
	PredFNE             // float !=
	PredFLT             // float <
	PredFLE             // float <=
	PredFGT             // float >
	PredFGE             // float >=
)

var opNames = [...]string{
	OpInvalid:   "invalid",
	OpMov:       "mov",
	OpAdd:       "add",
	OpSub:       "sub",
	OpMul:       "mul",
	OpDiv:       "div",
	OpRem:       "rem",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpShl:       "shl",
	OpShr:       "shr",
	OpSar:       "sar",
	OpNot:       "not",
	OpFAdd:      "fadd",
	OpFSub:      "fsub",
	OpFMul:      "fmul",
	OpFDiv:      "fdiv",
	OpFSqrt:     "fsqrt",
	OpFExp:      "fexp",
	OpFLog:      "flog",
	OpFAbs:      "fabs",
	OpSIToFP:    "sitofp",
	OpFPToSI:    "fptosi",
	OpCmp:       "cmp",
	OpSelect:    "select",
	OpLoad:      "load",
	OpStore:     "store",
	OpALoad:     "aload",
	OpAStore:    "astore",
	OpARMW:      "armw",
	OpFrameAddr: "frameaddr",
	OpPhi:       "phi",
	OpCall:      "call",
	OpCallInd:   "callind",
	OpOut:       "out",
	OpBr:        "br",
	OpJmp:       "jmp",
	OpRet:       "ret",
	OpTrap:      "trap",
}

// String returns the mnemonic of the operation.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

var predNames = [...]string{
	PredEQ:  "eq",
	PredNE:  "ne",
	PredLT:  "lt",
	PredLE:  "le",
	PredGT:  "gt",
	PredGE:  "ge",
	PredULT: "ult",
	PredUGE: "uge",
	PredFEQ: "feq",
	PredFNE: "fne",
	PredFLT: "flt",
	PredFLE: "fle",
	PredFGT: "fgt",
	PredFGE: "fge",
}

// String returns the mnemonic of the predicate.
func (p Pred) String() string {
	if int(p) < len(predNames) && predNames[p] != "" {
		return predNames[p]
	}
	return "pred?"
}

// IsTerminator reports whether op must terminate a basic block.
func (op Op) IsTerminator() bool {
	switch op {
	case OpBr, OpJmp, OpRet, OpTrap:
		return true
	}
	return false
}

// IsMemory reports whether the operation reads or writes memory.
func (op Op) IsMemory() bool {
	switch op {
	case OpLoad, OpStore, OpALoad, OpAStore, OpARMW:
		return true
	}
	return false
}

// Replicable reports whether ILR creates a shadow copy of this
// instruction. Per the paper (§3.2), control flow, memory-related
// instructions, and calls are not replicated; everything else is.
// OpLoad is special: basic ILR does not replicate it (it inserts a mov
// of the loaded value) while the shared-memory optimization duplicates
// the load itself; the ILR pass handles that distinction, so OpLoad
// reports false here.
func (op Op) Replicable() bool {
	switch op {
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpSar, OpNot,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpFSqrt, OpFExp, OpFLog, OpFAbs,
		OpSIToFP, OpFPToSI, OpCmp, OpSelect, OpFrameAddr, OpPhi:
		return true
	}
	return false
}

// Unfriendly reports whether the operation forces an HTM abort when
// executed inside a hardware transaction (models system calls and
// other TSX-unfriendly instructions).
func (op Op) Unfriendly() bool {
	return op == OpOut || op == OpTrap
}
