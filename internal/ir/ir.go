package ir

import (
	"fmt"
	"math"
)

// ValueID names an SSA virtual register within a function. IDs are
// dense, starting at 0 for the first parameter. NoValue marks the
// absence of a result.
type ValueID int32

// NoValue is the ValueID of "no register".
const NoValue ValueID = -1

// Operand is either a register reference or an immediate 64-bit
// constant.
type Operand struct {
	IsConst bool
	Reg     ValueID // valid when !IsConst
	Const   uint64  // valid when IsConst
}

// Reg returns a register operand.
func Reg(v ValueID) Operand { return Operand{Reg: v} }

// ConstInt returns an integer immediate operand.
func ConstInt(v int64) Operand { return Operand{IsConst: true, Const: uint64(v)} }

// ConstUint returns an unsigned integer immediate operand.
func ConstUint(v uint64) Operand { return Operand{IsConst: true, Const: v} }

// ConstFloat returns a float64 immediate operand (stored as IEEE bits).
func ConstFloat(v float64) Operand { return Operand{IsConst: true, Const: math.Float64bits(v)} }

// String formats the operand for the textual IR.
func (o Operand) String() string {
	if o.IsConst {
		return fmt.Sprintf("#%d", int64(o.Const))
	}
	return fmt.Sprintf("v%d", o.Reg)
}

// InstrFlags carries pass-to-pass metadata attached to instructions.
// ILR and TX communicate through these flags exactly as the paper's
// LLVM metadata does (§4.1, "Collaboration of ILR and TX").
type InstrFlags uint16

const (
	// FlagShadow marks instructions inserted by ILR as part of the
	// shadow data flow.
	FlagShadow InstrFlags = 1 << iota
	// FlagCheck marks ILR integrity checks (the cmp feeding a
	// detection branch).
	FlagCheck
	// FlagFaultProp marks fault-propagation checks on loop induction
	// variables; the TX pass relocates these into the conditional
	// transaction split (§3.3).
	FlagFaultProp
	// FlagTXHelper marks calls to transactification helper functions
	// inserted by the TX pass.
	FlagTXHelper
	// FlagDetect marks the branch transferring control to a detection
	// point (xabort / crash) on check failure.
	FlagDetect
	// FlagExtern marks checks guarding a true externalization point
	// (addresses about to be dereferenced, atomics, arguments escaping
	// to unprotected code). The TX-aware check relaxation must keep
	// these eager: deferring them to transaction commit would let a
	// corrupted value escape the transaction's write buffer.
	FlagExtern
	// FlagReplica marks the master-to-shadow mov that (re)seeds the
	// shadow flow from a master value (load results, call results,
	// parameters). Copy propagation must never propagate through a
	// replica mov: doing so would collapse a master/shadow check into
	// comparing the master register with itself.
	FlagReplica
	// FlagShadow2 marks instructions belonging to the second shadow
	// data flow of the TMR pass. TMR replicas carry FlagShadow as well
	// (both shadow flows are "shadow" to the machine's accounting);
	// FlagShadow2 distinguishes the third replica so fault campaigns
	// can target each of the three flows independently.
	FlagShadow2
)

// Instr is a single IR instruction. Not every field is meaningful for
// every op; the verifier enforces the per-op shape.
type Instr struct {
	Op   Op
	Res  ValueID   // NoValue if the instruction defines no register
	Args []Operand // operand list

	Pred     Pred    // OpCmp
	RMW      RMWKind // OpARMW
	Callee   string  // OpCall
	Off      int64   // OpFrameAddr: byte offset into the frame
	Blocks   []int   // OpBr: [then, else]; OpJmp: [target]
	PhiPreds []int   // OpPhi: predecessor block indices, parallel to Args
	Volatile bool    // OpLoad: not removable/reorderable (shadow loads)
	Flags    InstrFlags
	// Line is the source line the instruction derives from: the
	// textual IR line for parsed modules, the surface-language line
	// for compiled ones. Hardening passes stamp inserted instructions
	// with the line of the master instruction they guard, so the
	// profiler can attribute overhead to source lines. 0 = unknown
	// (synthesized runtime helpers).
	Line int32
}

// HasFlag reports whether all bits of f are set.
func (in *Instr) HasFlag(f InstrFlags) bool { return in.Flags&f == f }

// Clone returns a deep copy of the instruction.
func (in *Instr) Clone() Instr {
	out := *in
	out.Args = append([]Operand(nil), in.Args...)
	if in.Blocks != nil {
		out.Blocks = append([]int(nil), in.Blocks...)
	}
	if in.PhiPreds != nil {
		out.PhiPreds = append([]int(nil), in.PhiPreds...)
	}
	return out
}

// Block is a basic block: a straight-line instruction sequence ending
// in exactly one terminator.
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns a pointer to the block's final instruction, or
// nil if the block is empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Name: b.Name, Instrs: make([]Instr, len(b.Instrs))}
	for i := range b.Instrs {
		nb.Instrs[i] = b.Instrs[i].Clone()
	}
	return nb
}

// FuncAttrs carries per-function attributes consulted by the passes
// and the machine.
type FuncAttrs struct {
	// Local marks functions only ever called from other HAFTed
	// functions; the TX pass applies the local-call optimization to
	// them (§3.3). Externally called functions (e.g. thread entry
	// points) must not be marked local.
	Local bool
	// Unprotected marks functions the HAFT passes skip entirely,
	// modeling external libraries whose source is unavailable (§4.1).
	Unprotected bool
	// EventHandler marks request-handler functions; the SEI baseline
	// pass hardens exactly these.
	EventHandler bool
}

// Func is an IR function.
type Func struct {
	Name    string
	NParams int // parameters are ValueIDs 0..NParams-1
	NValues int // total registers defined (parameters included)
	Blocks  []*Block
	// FrameBytes is the stack frame size; OpFrameAddr offsets must lie
	// in [0, FrameBytes).
	FrameBytes int64
	Attrs      FuncAttrs
}

// NewValue allocates a fresh register in f and returns its ID.
func (f *Func) NewValue() ValueID {
	id := ValueID(f.NValues)
	f.NValues++
	return id
}

// Clone returns a deep copy of the function.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:       f.Name,
		NParams:    f.NParams,
		NValues:    f.NValues,
		FrameBytes: f.FrameBytes,
		Attrs:      f.Attrs,
		Blocks:     make([]*Block, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.Clone()
	}
	return nf
}

// NumInstrs returns the static instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Global is a module-level memory object. The module layout assigns
// each global a byte address; Align controls cache-line placement
// (the wordcount-ns / kmeans-ns variants differ from their originals
// only by alignment and padding).
type Global struct {
	Name  string
	Bytes int64    // size in bytes, multiple of 8
	Align int64    // 8 or 64; 0 means 8
	Init  []uint64 // optional initial words (len*8 <= Bytes)
	Addr  uint64   // assigned by Module.Layout
}

// Module is a linked program: functions plus global memory layout.
type Module struct {
	Funcs   []*Func
	funcIdx map[string]int
	Globals []*Global
	gblIdx  map[string]int

	// HeapBase/HeapBytes describe the dynamic allocation arena placed
	// after the globals by Layout.
	HeapBase  uint64
	HeapBytes uint64
	// StackBytes is the per-thread stack size; stacks are placed after
	// the heap by the machine.
	StackBytes uint64

	laidOut bool
}

// NewModule returns an empty module with default heap and stack sizes.
func NewModule() *Module {
	return &Module{
		funcIdx:    make(map[string]int),
		gblIdx:     make(map[string]int),
		HeapBytes:  1 << 22, // 4 MiB
		StackBytes: 1 << 16, // 64 KiB per thread
	}
}

// AddFunc appends f to the module. It panics if the name is taken.
func (m *Module) AddFunc(f *Func) {
	if _, ok := m.funcIdx[f.Name]; ok {
		panic("ir: duplicate function " + f.Name)
	}
	m.funcIdx[f.Name] = len(m.Funcs)
	m.Funcs = append(m.Funcs, f)
}

// Func returns the named function, or nil.
func (m *Module) Func(name string) *Func {
	if i, ok := m.funcIdx[name]; ok {
		return m.Funcs[i]
	}
	return nil
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	if i, ok := m.funcIdx[name]; ok {
		return i
	}
	return -1
}

// AddGlobal declares a global and returns it. Size is rounded up to a
// multiple of 8 bytes. It panics if the name is taken.
func (m *Module) AddGlobal(name string, bytes int64) *Global {
	if _, ok := m.gblIdx[name]; ok {
		panic("ir: duplicate global " + name)
	}
	if bytes%8 != 0 {
		bytes += 8 - bytes%8
	}
	g := &Global{Name: name, Bytes: bytes, Align: 8}
	m.gblIdx[name] = len(m.Globals)
	m.Globals = append(m.Globals, g)
	m.laidOut = false
	return g
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	if i, ok := m.gblIdx[name]; ok {
		return m.Globals[i]
	}
	return nil
}

// globalBase is the address of the first global. Address 0 is kept
// unmapped so that stray zero-valued registers used as addresses fault
// (the "OS-detected" outcome of the fault-injection study).
const globalBase = 0x1000

// Layout assigns addresses to globals and the heap arena. It is
// idempotent and must be called (directly or via a machine) before
// execution. Returns the total initialized memory size in bytes,
// excluding stacks.
func (m *Module) Layout() uint64 {
	if m.laidOut {
		return m.HeapBase + m.HeapBytes
	}
	addr := uint64(globalBase)
	for _, g := range m.Globals {
		align := uint64(g.Align)
		if align < 8 {
			align = 8
		}
		if r := addr % align; r != 0 {
			addr += align - r
		}
		g.Addr = addr
		addr += uint64(g.Bytes)
	}
	// Heap starts at the next cache line.
	if r := addr % 64; r != 0 {
		addr += 64 - r
	}
	m.HeapBase = addr
	m.laidOut = true
	return m.HeapBase + m.HeapBytes
}

// Clone returns a deep copy of the module. Pass pipelines transform
// clones so that the pristine program remains available for native
// baselines and differential testing.
func (m *Module) Clone() *Module {
	nm := NewModule()
	nm.HeapBytes = m.HeapBytes
	nm.StackBytes = m.StackBytes
	for _, f := range m.Funcs {
		nm.AddFunc(f.Clone())
	}
	for _, g := range m.Globals {
		ng := nm.AddGlobal(g.Name, g.Bytes)
		ng.Align = g.Align
		ng.Init = append([]uint64(nil), g.Init...)
	}
	return nm
}

// NumInstrs returns the static instruction count of the module.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}
