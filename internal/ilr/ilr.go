// Package ilr implements HAFT's Instruction-Level Redundancy pass for
// fault detection (§3.2–3.3 of the paper).
//
// The pass creates a second, shadow data flow alongside the master
// flow: every replicable instruction is duplicated to operate on
// shadow registers, and integrity checks comparing master and shadow
// copies are inserted before every externalization point — stores,
// atomics, calls, output, returns, and branches. A diverging check
// transfers control to a detection block that invokes the ilr.fail
// runtime, which aborts the enclosing hardware transaction (recovery)
// or terminates the program (fail-stop).
//
// The optimizations of §3.3 are individually switchable so the Fig. 7
// and Fig. 9 ablations can be reproduced:
//
//   - SharedMem: the race-free memory access scheme of Figure 3b
//     (duplicated loads; check-after-store with a reloading compare)
//     instead of the expensive address+value checks of Figure 3a;
//   - ControlFlow: the shadow-basic-block branch protection of
//     Figure 4b instead of the naive condition check of Figure 4a;
//   - FaultProp: explicit checks on loop induction variables that are
//     otherwise unchecked inside the loop, placed so the TX pass can
//     anchor its conditional transaction split after them (§3.3).
package ilr

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Options selects the §3.3 optimizations.
type Options struct {
	// SharedMem enables the optimized race-free memory access scheme
	// (Figure 3b).
	SharedMem bool
	// ControlFlow enables shadow-basic-block branch protection
	// (Figure 4b).
	ControlFlow bool
	// FaultProp enables fault-propagation checks on loop induction
	// variables.
	FaultProp bool
}

// AllOptions returns the fully optimized configuration.
func AllOptions() Options {
	return Options{SharedMem: true, ControlFlow: true, FaultProp: true}
}

// Apply transforms every protected function of m in place.
func Apply(m *ir.Module, opts Options) {
	for i, f := range m.Funcs {
		if f.Attrs.Unprotected {
			continue
		}
		m.Funcs[i] = transformFunc(f, opts)
	}
}

// TransformFunc rewrites a single function with the shadow flow and
// checks; the original is not modified. Used by the SEI baseline pass
// (package sei), which hardens only event-handler functions.
func TransformFunc(f *ir.Func, opts Options) *ir.Func {
	return transformFunc(f, opts)
}

// transformFunc rewrites one function with the shadow flow and checks.
func transformFunc(f *ir.Func, opts Options) *ir.Func {
	t := &transformer{
		opts:  opts,
		old:   f,
		nOld:  f.NValues,
		preds: make(map[[2]int]int),
	}
	t.nf = &ir.Func{
		Name:       f.Name,
		NParams:    f.NParams,
		NValues:    2 * f.NValues, // shadows occupy [nOld, 2*nOld)
		FrameBytes: f.FrameBytes,
		Attrs:      f.Attrs,
	}
	// Fault-propagation candidates: innermost loops whose body
	// contains no check-inducing instruction, keyed by header block.
	t.faultPropHeaders = map[int]bool{}
	if opts.FaultProp {
		g := cfg.New(f)
		for _, l := range cfg.InnermostLoops(g.Loops()) {
			if !loopHasChecks(f, l) {
				t.faultPropHeaders[l.Header] = true
			}
		}
	}
	t.run()
	return t.nf
}

// loopHasChecks reports whether the loop body contains an instruction
// that ILR will guard with a check (store, atomic, call, out): if so,
// faults in induction variables are caught by those checks and no
// extra fault-propagation check is needed.
func loopHasChecks(f *ir.Func, l *cfg.Loop) bool {
	for _, bi := range l.Blocks {
		for i := range f.Blocks[bi].Instrs {
			switch f.Blocks[bi].Instrs[i].Op {
			case ir.OpStore, ir.OpAStore, ir.OpALoad, ir.OpARMW,
				ir.OpCall, ir.OpCallInd, ir.OpOut:
				return true
			}
		}
	}
	return false
}

// transformer carries the per-function rewrite state.
type transformer struct {
	opts Options
	old  *ir.Func
	nf   *ir.Func
	nOld int

	cur          int            // current output block index
	firstDerived []int          // orig block -> first new block
	preds        map[[2]int]int // (origPred, origSucc) -> new pred block
	detect       int            // detection block index, -1 until created

	faultPropHeaders map[int]bool

	// lastShadowCopyOf is the master value whose shadow was created by
	// the immediately preceding emitted instruction (peephole state).
	lastShadowCopyOf ir.ValueID

	// curLine is the source line of the original instruction being
	// transformed; inserted shadow copies, checks, and detection
	// branches inherit it so profiler attribution stays per-line.
	curLine int32
}

// Branch targets pointing at original block indices are encoded as
// ^origIdx (negative) during emission and resolved in fixup.
func pending(orig int) int { return ^orig }

func (t *transformer) shadow(v ir.ValueID) ir.ValueID { return v + ir.ValueID(t.nOld) }

// shadowOf maps an operand into the shadow flow.
func (t *transformer) shadowOf(o ir.Operand) ir.Operand {
	if o.IsConst {
		return o
	}
	return ir.Reg(t.shadow(o.Reg))
}

func (t *transformer) newBlock(name string) int {
	t.nf.Blocks = append(t.nf.Blocks, &ir.Block{Name: name})
	return len(t.nf.Blocks) - 1
}

func (t *transformer) emit(in ir.Instr) {
	if in.Line == 0 {
		in.Line = t.curLine
	}
	t.nf.Blocks[t.cur].Instrs = append(t.nf.Blocks[t.cur].Instrs, in)
	t.lastShadowCopyOf = ir.NoValue
}

// emitShadowCopy emits "shadow(v) = mov v" and records it for the
// peephole.
func (t *transformer) emitShadowCopy(v ir.ValueID) {
	t.emit(ir.Instr{
		Op: ir.OpMov, Res: t.shadow(v),
		Args: []ir.Operand{ir.Reg(v)}, Flags: ir.FlagShadow | ir.FlagReplica,
	})
	t.lastShadowCopyOf = v
}

// ensureDetect returns the index of the function's detection block.
func (t *transformer) ensureDetect() int {
	if t.detect >= 0 {
		return t.detect
	}
	save := t.cur
	t.detect = t.newBlock("ilr.detect")
	t.cur = t.detect
	t.emit(ir.Instr{Op: ir.OpCall, Callee: "ilr.fail", Res: ir.NoValue, Flags: ir.FlagDetect})
	t.emit(ir.Instr{Op: ir.OpTrap, Res: ir.NoValue, Flags: ir.FlagDetect})
	t.cur = save
	return t.detect
}

// emitCheck inserts "if master != shadow goto detect" for a register
// operand, splitting the current block. Constants are never checked.
func (t *transformer) emitCheck(o ir.Operand, extra ir.InstrFlags) {
	if o.IsConst {
		return
	}
	if t.lastShadowCopyOf == o.Reg && extra&ir.FlagFaultProp == 0 {
		// Peephole (on in the paper's implementation): the shadow copy
		// was created by the previous instruction, so the two registers
		// cannot have diverged yet.
		return
	}
	pred := ir.PredNE
	d := t.nf.NewValue()
	t.emit(ir.Instr{
		Op: ir.OpCmp, Res: d, Pred: pred,
		Args:  []ir.Operand{o, t.shadowOf(o)},
		Flags: ir.FlagCheck | extra,
	})
	det := t.ensureDetect()
	cont := t.newBlock(t.nf.Blocks[t.cur].Name + ".k")
	t.emit(ir.Instr{
		Op: ir.OpBr, Res: ir.NoValue,
		Args:   []ir.Operand{ir.Reg(d)},
		Blocks: []int{det, cont},
		Flags:  ir.FlagDetect | extra,
	})
	t.cur = cont
}

// run drives the rewrite.
func (t *transformer) run() {
	t.detect = -1
	t.lastShadowCopyOf = ir.NoValue
	t.firstDerived = make([]int, len(t.old.Blocks))
	for i := range t.firstDerived {
		t.firstDerived[i] = -1
	}
	for bi, b := range t.old.Blocks {
		nb := t.newBlock(b.Name)
		t.firstDerived[bi] = nb
		t.cur = nb
		t.lastShadowCopyOf = ir.NoValue
		if bi == 0 {
			// Replicate the incoming parameters into the shadow flow.
			for p := 0; p < t.old.NParams; p++ {
				t.emitShadowCopy(ir.ValueID(p))
			}
		}
		t.emitBlock(bi, b)
	}
	t.fixup()
}

// emitBlock transforms the body of one original block.
func (t *transformer) emitBlock(bi int, b *ir.Block) {
	i := 0
	// Phi group: master phis first, then shadow phis, keeping the
	// group contiguous at the block head.
	var shadowPhis []ir.Instr
	for i < len(b.Instrs) && b.Instrs[i].Op == ir.OpPhi {
		in := b.Instrs[i]
		t.curLine = in.Line
		t.emit(in.Clone())
		sp := in.Clone()
		sp.Res = t.shadow(in.Res)
		for k := range sp.Args {
			sp.Args[k] = t.shadowOf(sp.Args[k])
		}
		sp.Flags |= ir.FlagShadow
		shadowPhis = append(shadowPhis, sp)
		i++
	}
	for _, sp := range shadowPhis {
		t.emit(sp)
	}
	// Fault-propagation checks on the induction variables (the header
	// phis) of check-free innermost loops.
	if t.faultPropHeaders[bi] {
		for k := 0; k < i; k++ {
			t.emitCheck(ir.Reg(b.Instrs[k].Res), ir.FlagFaultProp)
		}
	}
	for ; i < len(b.Instrs); i++ {
		t.emitInstr(bi, &b.Instrs[i])
	}
}

// emitInstr transforms one non-phi instruction.
func (t *transformer) emitInstr(bi int, in *ir.Instr) {
	t.curLine = in.Line
	switch {
	case in.Op.Replicable():
		t.emit(in.Clone())
		sh := in.Clone()
		sh.Res = t.shadow(in.Res)
		for k := range sh.Args {
			sh.Args[k] = t.shadowOf(sh.Args[k])
		}
		sh.Flags |= ir.FlagShadow
		t.emit(sh)
		return

	case in.Op == ir.OpLoad:
		if t.opts.SharedMem {
			// Figure 3b: duplicate the load through the shadow address.
			t.emit(in.Clone())
			sh := in.Clone()
			sh.Res = t.shadow(in.Res)
			sh.Args[0] = t.shadowOf(in.Args[0])
			sh.Volatile = true
			sh.Flags |= ir.FlagShadow
			t.emit(sh)
			return
		}
		// Figure 3a: check the address, load, replicate the value. The
		// address check is a true externalization guard (a corrupted
		// address faults immediately): it must stay eager.
		t.emitCheck(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		t.emitShadowCopy(in.Res)
		return

	case in.Op == ir.OpALoad:
		// Atomic loads always use the expensive scheme (§3.3).
		t.emitCheck(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		t.emitShadowCopy(in.Res)
		return

	case in.Op == ir.OpStore:
		if t.opts.SharedMem {
			// Figure 3b: store, reload through the shadow address,
			// compare against the shadow value.
			t.emit(in.Clone())
			tmp := t.nf.NewValue()
			t.emit(ir.Instr{
				Op: ir.OpLoad, Res: tmp,
				Args:     []ir.Operand{t.shadowOf(in.Args[0])},
				Volatile: true,
				Flags:    ir.FlagShadow,
			})
			d := t.nf.NewValue()
			t.emit(ir.Instr{
				Op: ir.OpCmp, Res: d, Pred: ir.PredNE,
				Args:  []ir.Operand{ir.Reg(tmp), t.shadowOf(in.Args[1])},
				Flags: ir.FlagCheck,
			})
			det := t.ensureDetect()
			cont := t.newBlock(t.nf.Blocks[t.cur].Name + ".k")
			t.emit(ir.Instr{
				Op: ir.OpBr, Res: ir.NoValue,
				Args:   []ir.Operand{ir.Reg(d)},
				Blocks: []int{det, cont},
				Flags:  ir.FlagDetect,
			})
			t.cur = cont
			return
		}
		// Figure 3a: check value and address before the store. The
		// value check may be relaxed into the transaction (the store is
		// buffered until commit); the address check stays eager.
		t.emitCheck(in.Args[1], 0)
		t.emitCheck(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		return

	case in.Op == ir.OpAStore:
		// Atomic stores are irreversible externalization: always check
		// value and address first, eagerly.
		t.emitCheck(in.Args[1], ir.FlagExtern)
		t.emitCheck(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		return

	case in.Op == ir.OpARMW:
		// Atomics act on shared state other threads observe before our
		// transaction commits: keep every operand check eager.
		for k := len(in.Args) - 1; k >= 0; k-- {
			t.emitCheck(in.Args[k], ir.FlagExtern)
		}
		t.emit(in.Clone())
		t.emitShadowCopy(in.Res)
		return

	case in.Op == ir.OpCall || in.Op == ir.OpCallInd:
		// Calls are not replicated: arguments are checked before the
		// call and the return value is immediately replicated (§3.2).
		for k := len(in.Args) - 1; k >= 0; k-- {
			t.emitCheck(in.Args[k], 0)
		}
		t.emit(in.Clone())
		if in.Res != ir.NoValue {
			t.emitShadowCopy(in.Res)
		}
		return

	case in.Op == ir.OpOut:
		t.emitCheck(in.Args[0], 0)
		t.emit(in.Clone())
		return

	case in.Op == ir.OpBr:
		t.emitBr(bi, in)
		return

	case in.Op == ir.OpJmp:
		t.preds[[2]int{bi, in.Blocks[0]}] = t.cur
		t.emit(ir.Instr{Op: ir.OpJmp, Blocks: []int{pending(in.Blocks[0])}, Res: ir.NoValue})
		return

	case in.Op == ir.OpRet:
		if len(in.Args) == 1 {
			t.emitCheck(in.Args[0], 0)
		}
		t.emit(in.Clone())
		return

	case in.Op == ir.OpTrap:
		t.emit(in.Clone())
		return
	}
	// OpStore and friends are covered above; anything else is a bug.
	panic("ilr: unhandled op " + in.Op.String())
}

// emitBr protects a conditional branch.
func (t *transformer) emitBr(bi int, in *ir.Instr) {
	cond := in.Args[0]
	then, els := in.Blocks[0], in.Blocks[1]
	if cond.IsConst || !t.opts.ControlFlow || then == els {
		// Figure 4a: naive explicit check of the condition.
		t.emitCheck(cond, 0)
		t.preds[[2]int{bi, then}] = t.cur
		t.preds[[2]int{bi, els}] = t.cur
		t.emit(ir.Instr{
			Op: ir.OpBr, Res: ir.NoValue,
			Args:   []ir.Operand{cond},
			Blocks: []int{pending(then), pending(els)},
		})
		return
	}
	// Figure 4b: route both outcomes through shadow blocks that verify
	// the shadow condition, so a status-register fault between check
	// and branch cannot divert control undetected.
	det := t.ensureDetect()
	name := t.nf.Blocks[t.cur].Name
	strue := t.newBlock(name + ".strue")
	sfalse := t.newBlock(name + ".sfalse")
	t.emit(ir.Instr{
		Op: ir.OpBr, Res: ir.NoValue,
		Args:   []ir.Operand{cond},
		Blocks: []int{strue, sfalse},
	})
	save := t.cur
	t.cur = strue
	t.emit(ir.Instr{
		Op: ir.OpBr, Res: ir.NoValue,
		Args:   []ir.Operand{t.shadowOf(cond)},
		Blocks: []int{pending(then), det},
		Flags:  ir.FlagShadow,
	})
	t.cur = sfalse
	t.emit(ir.Instr{
		Op: ir.OpBr, Res: ir.NoValue,
		Args:   []ir.Operand{t.shadowOf(cond)},
		Blocks: []int{det, pending(els)},
		Flags:  ir.FlagShadow,
	})
	t.cur = save
	t.preds[[2]int{bi, then}] = strue
	t.preds[[2]int{bi, els}] = sfalse
}

// fixup resolves pending branch targets and rewrites phi predecessor
// lists to the new CFG.
func (t *transformer) fixup() {
	for _, b := range t.nf.Blocks {
		term := b.Terminator()
		if term == nil {
			continue
		}
		for k, tgt := range term.Blocks {
			if tgt < 0 {
				term.Blocks[k] = t.firstDerived[^tgt]
			}
		}
	}
	// Phis live in first-derived blocks; map (origPred -> this block's
	// original index) through the recorded predecessor map.
	origOf := make(map[int]int) // firstDerived -> orig
	for oi, ni := range t.firstDerived {
		origOf[ni] = oi
	}
	for ni, b := range t.nf.Blocks {
		oi, isFirst := origOf[ni]
		if !isFirst {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpPhi {
				continue // phis only occur in the head group anyway
			}
			for k, p := range in.PhiPreds {
				np, ok := t.preds[[2]int{p, oi}]
				if !ok {
					panic("ilr: unmapped phi predecessor")
				}
				in.PhiPreds[k] = np
			}
		}
	}
}
