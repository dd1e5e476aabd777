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
//
// The same transformer builds the Elzar-style TMR pass (package tmr)
// with three copies of the data flow instead of two. Everything but
// three places is shared; with three copies
//
//   - an operand guard is a tmr.vote call instead of a compare and a
//     branch to the detection block;
//   - a store votes its operands, stores once, reloads the cell and
//     compares it with tx.check instead of using Figure 3a or 3b;
//   - a protected branch votes its condition and runs a branch-level
//     majority cascade instead of Figure 4b's shadow blocks.
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
func Apply(m *ir.Module, opts Options) { Replicate(m, 2, opts) }

// Replicate transforms every protected function of m in place with
// copies data flows: 2 is ILR, 3 is the TMR pass. With three copies
// SharedMem loads through each replica's own address and ControlFlow
// builds the majority cascade.
func Replicate(m *ir.Module, copies int, opts Options) {
	if copies != 2 && copies != 3 {
		panic("ilr: replica count must be 2 or 3")
	}
	for i, f := range m.Funcs {
		if f.Attrs.Unprotected {
			continue
		}
		m.Funcs[i] = transformFunc(f, copies, opts)
	}
}

// TransformFunc rewrites a single function with the shadow flow and
// checks; the original is not modified. Used by the SEI baseline pass
// (package sei), which hardens only event-handler functions.
func TransformFunc(f *ir.Func, opts Options) *ir.Func {
	return transformFunc(f, 2, opts)
}

// transformFunc rewrites one function with copies data flows and
// their guards.
func transformFunc(f *ir.Func, copies int, opts Options) *ir.Func {
	t := &transformer{
		opts:   opts,
		copies: copies,
		old:    f,
		nOld:   f.NValues,
		preds:  make(map[[2]int]int),
	}
	t.nf = &ir.Func{
		Name:       f.Name,
		NParams:    f.NParams,
		NValues:    copies * f.NValues, // replica k occupies [k*nOld, (k+1)*nOld)
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
	opts   Options
	copies int // data flows: the master plus copies-1 replicas
	old    *ir.Func
	nf     *ir.Func
	nOld   int

	cur          int            // current output block index
	firstDerived []int          // orig block -> first new block
	preds        map[[2]int]int // (origPred, origSucc) -> new pred block
	detect       int            // detection block index, -1 until created

	faultPropHeaders map[int]bool

	// lastCopied is the master value whose replica copies were created
	// by the immediately preceding emitted instructions (peephole
	// state): a guard on copies that were just seeded finds nothing.
	lastCopied ir.ValueID

	// curLine is the source line of the original instruction being
	// transformed; inserted replicas, checks, votes and detection
	// branches inherit it so profiler attribution stays per-line.
	curLine int32
}

// Branch targets pointing at original block indices are encoded as
// ^origIdx (negative) during emission and resolved in fixup.
func pending(orig int) int { return ^orig }

// replica numbers master value v in data flow k (k >= 1).
func (t *transformer) replica(v ir.ValueID, k int) ir.ValueID {
	return v + ir.ValueID(k*t.nOld)
}

// replicaOf maps an operand into data flow k.
func (t *transformer) replicaOf(o ir.Operand, k int) ir.Operand {
	if o.IsConst {
		return o
	}
	return ir.Reg(t.replica(o.Reg, k))
}

// replicaFlags marks data flow k. Every replica carries FlagShadow (to
// the machine's accounting all replica work is "shadow"); FlagShadow2
// tells the third copy apart so fault campaigns can target each flow.
func replicaFlags(k int) ir.InstrFlags {
	if k == 2 {
		return ir.FlagShadow | ir.FlagShadow2
	}
	return ir.FlagShadow
}

// replicaInstr returns in's twin in data flow k.
func (t *transformer) replicaInstr(in *ir.Instr, k int) ir.Instr {
	r := in.Clone()
	r.Res = t.replica(in.Res, k)
	for a := range r.Args {
		r.Args[a] = t.replicaOf(r.Args[a], k)
	}
	r.Flags |= replicaFlags(k)
	return r
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
	t.lastCopied = ir.NoValue
}

// emitReplicaCopies seeds every replica from master value v
// (parameters, load-once results, call results) with "mov v" and
// records v for the peephole.
func (t *transformer) emitReplicaCopies(v ir.ValueID) {
	for k := 1; k < t.copies; k++ {
		t.emit(ir.Instr{
			Op: ir.OpMov, Res: t.replica(v, k),
			Args: []ir.Operand{ir.Reg(v)}, Flags: replicaFlags(k) | ir.FlagReplica,
		})
	}
	t.lastCopied = v
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

// guard protects a register operand at an externalization point:
// with two copies "if master != shadow goto detect", splitting the
// current block; with three a 2-of-3 vote that corrects a diverging
// replica in place. Constants are never guarded.
func (t *transformer) guard(o ir.Operand, extra ir.InstrFlags) {
	if o.IsConst {
		return
	}
	if t.lastCopied == o.Reg && extra&ir.FlagFaultProp == 0 {
		// Peephole (on in the paper's implementation): the replica
		// copies were created by the previous instructions, so the
		// registers cannot have diverged yet.
		return
	}
	if t.copies == 3 {
		t.emit(ir.Instr{
			Op: ir.OpCall, Callee: "tmr.vote", Res: ir.NoValue,
			Args:  []ir.Operand{o, t.replicaOf(o, 1), t.replicaOf(o, 2)},
			Flags: ir.FlagCheck,
		})
		return
	}
	t.checkNE(o, t.replicaOf(o, 1), extra)
}

// checkNE inserts "if a != b goto detect", splitting the current block.
func (t *transformer) checkNE(a, b ir.Operand, extra ir.InstrFlags) {
	d := t.nf.NewValue()
	t.emit(ir.Instr{
		Op: ir.OpCmp, Res: d, Pred: ir.PredNE,
		Args:  []ir.Operand{a, b},
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
	t.lastCopied = ir.NoValue
	t.firstDerived = make([]int, len(t.old.Blocks))
	for i := range t.firstDerived {
		t.firstDerived[i] = -1
	}
	for bi, b := range t.old.Blocks {
		nb := t.newBlock(b.Name)
		t.firstDerived[bi] = nb
		t.cur = nb
		t.lastCopied = ir.NoValue
		if bi == 0 {
			// Replicate the incoming parameters into every replica.
			for p := 0; p < t.old.NParams; p++ {
				t.emitReplicaCopies(ir.ValueID(p))
			}
		}
		t.emitBlock(bi, b)
	}
	t.fixup()
}

// emitBlock transforms the body of one original block.
func (t *transformer) emitBlock(bi int, b *ir.Block) {
	i := 0
	// Phi group: master phis first, then each replica's phis, keeping
	// the group contiguous at the block head.
	var replicaPhis [3][]ir.Instr // by flow; the master's stays empty
	for i < len(b.Instrs) && b.Instrs[i].Op == ir.OpPhi {
		in := &b.Instrs[i]
		t.curLine = in.Line
		t.emit(in.Clone())
		for k := 1; k < t.copies; k++ {
			replicaPhis[k] = append(replicaPhis[k], t.replicaInstr(in, k))
		}
		i++
	}
	for _, phis := range replicaPhis[1:t.copies] {
		for _, p := range phis {
			t.emit(p)
		}
	}
	// Fault-propagation checks on the induction variables (the header
	// phis) of check-free innermost loops.
	if t.faultPropHeaders[bi] {
		for k := 0; k < i; k++ {
			t.guard(ir.Reg(b.Instrs[k].Res), ir.FlagFaultProp)
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
		for k := 1; k < t.copies; k++ {
			t.emit(t.replicaInstr(in, k))
		}
		return

	case in.Op == ir.OpLoad:
		if t.opts.SharedMem {
			// Figure 3b: repeat the load through each replica's own
			// address. Replica loads are volatile so they cannot be
			// merged back into one access.
			t.emit(in.Clone())
			for k := 1; k < t.copies; k++ {
				r := t.replicaInstr(in, k)
				r.Volatile = true
				t.emit(r)
			}
			return
		}
		// Figure 3a: check the address, load, replicate the value. The
		// address check is a true externalization guard (a corrupted
		// address faults immediately): it must stay eager.
		t.guard(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		t.emitReplicaCopies(in.Res)
		return

	case in.Op == ir.OpALoad:
		// Atomic loads always use the expensive scheme (§3.3).
		t.guard(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		t.emitReplicaCopies(in.Res)
		return

	case in.Op == ir.OpStore:
		t.emitStore(in)
		return

	case in.Op == ir.OpAStore:
		// Atomic stores are irreversible externalization: always guard
		// value and address first, eagerly.
		t.guard(in.Args[1], ir.FlagExtern)
		t.guard(in.Args[0], ir.FlagExtern)
		t.emit(in.Clone())
		return

	case in.Op == ir.OpARMW:
		// Atomics act on shared state other threads observe before our
		// transaction commits and must execute exactly once: keep every
		// operand guard eager, run the master op, reseed the replicas.
		for k := len(in.Args) - 1; k >= 0; k-- {
			t.guard(in.Args[k], ir.FlagExtern)
		}
		t.emit(in.Clone())
		t.emitReplicaCopies(in.Res)
		return

	case in.Op == ir.OpCall || in.Op == ir.OpCallInd:
		// Calls are not replicated: arguments are guarded before the
		// call and the return value is immediately replicated (§3.2).
		for k := len(in.Args) - 1; k >= 0; k-- {
			t.guard(in.Args[k], 0)
		}
		t.emit(in.Clone())
		if in.Res != ir.NoValue {
			t.emitReplicaCopies(in.Res)
		}
		return

	case in.Op == ir.OpOut:
		t.guard(in.Args[0], 0)
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
			t.guard(in.Args[0], 0)
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

// emitStore protects a store.
func (t *transformer) emitStore(in *ir.Instr) {
	addr, val := in.Args[0], in.Args[1]
	if t.copies == 2 && t.opts.SharedMem {
		// Figure 3b: store, reload through the shadow address, compare
		// against the shadow value.
		t.emit(in.Clone())
		t.checkNE(t.reload(t.replicaOf(addr, 1)), t.replicaOf(val, 1), 0)
		return
	}
	// Figure 3a: guard value and address before the store. The value
	// check may be relaxed into the transaction (the store is buffered
	// until commit); the address check stays eager.
	t.guard(val, 0)
	t.guard(addr, ir.FlagExtern)
	t.emit(in.Clone())
	if t.copies == 3 {
		// Reload the cell and compare against the written value. Once
		// only one copy exists in memory a fault on the store can no
		// longer be corrected, but it is still detected (tx.check
		// outside a transaction is a hard failure).
		got := t.reload(addr)
		t.emit(ir.Instr{
			Op: ir.OpCall, Callee: "tx.check", Res: ir.NoValue,
			Args:  []ir.Operand{val, got},
			Flags: ir.FlagCheck | ir.FlagExtern,
		})
	}
}

// reload emits a volatile load of addr, flagged as shadow work, into a
// fresh value.
func (t *transformer) reload(addr ir.Operand) ir.Operand {
	tmp := t.nf.NewValue()
	t.emit(ir.Instr{
		Op: ir.OpLoad, Res: tmp,
		Args:     []ir.Operand{addr},
		Volatile: true,
		Flags:    ir.FlagShadow,
	})
	return ir.Reg(tmp)
}

// emitBr protects a conditional branch. Unprotected (Figure 4a), the
// condition is guarded and the master copy branches once. Protected,
// two copies route both outcomes through shadow blocks that verify the
// shadow condition (Figure 4b), so a status-register fault between
// check and branch cannot divert control undetected. Three copies vote
// the condition first and then route control through a branch-level
// majority cascade, so a fault in the branch unit — the taken
// direction flipping after the condition was read — is outvoted by
// the two replica branches:
//
//	b:    vote(c, s1, s2); br c -> b.t1, b.f1
//	b.t1: br s1 -> b.jt, b.t2     // master said taken
//	b.t2: br s2 -> b.jt, b.jf     // s1 disagreed: s2 breaks the tie
//	b.f1: br s1 -> b.f2, b.jf     // master said not-taken
//	b.f2: br s2 -> b.jt, b.jf     // s1 disagreed: s2 breaks the tie
//	b.jt: jmp then
//	b.jf: jmp els
//
// On a fault-free run the cascade costs two dynamic branches plus one
// jump; any single mis-taken branch still reaches the majority target.
func (t *transformer) emitBr(bi int, in *ir.Instr) {
	cond := in.Args[0]
	then, els := in.Blocks[0], in.Blocks[1]
	protect := t.opts.ControlFlow && !cond.IsConst && then != els
	if !protect || t.copies == 3 {
		t.guard(cond, 0)
	}
	if !protect {
		t.preds[[2]int{bi, then}] = t.cur
		t.preds[[2]int{bi, els}] = t.cur
		t.emit(ir.Instr{
			Op: ir.OpBr, Res: ir.NoValue,
			Args:   []ir.Operand{cond},
			Blocks: []int{pending(then), pending(els)},
		})
		return
	}
	branch := func(blk int, c ir.Operand, thenB, elsB int, fl ir.InstrFlags) {
		t.cur = blk
		t.emit(ir.Instr{
			Op: ir.OpBr, Res: ir.NoValue,
			Args:   []ir.Operand{c},
			Blocks: []int{thenB, elsB},
			Flags:  fl,
		})
	}
	save, name := t.cur, t.nf.Blocks[t.cur].Name
	s1, fl1 := t.replicaOf(cond, 1), replicaFlags(1)
	var thenPred, elsPred int // the new blocks that jump to then and els
	if t.copies == 2 {
		det := t.ensureDetect()
		thenPred = t.newBlock(name + ".strue")
		elsPred = t.newBlock(name + ".sfalse")
		branch(save, cond, thenPred, elsPred, 0)
		branch(thenPred, s1, pending(then), det, fl1)
		branch(elsPred, s1, det, pending(els), fl1)
	} else {
		s2, fl2 := t.replicaOf(cond, 2), replicaFlags(2)
		bt1 := t.newBlock(name + ".t1")
		bt2 := t.newBlock(name + ".t2")
		bf1 := t.newBlock(name + ".f1")
		bf2 := t.newBlock(name + ".f2")
		thenPred = t.newBlock(name + ".jt")
		elsPred = t.newBlock(name + ".jf")
		branch(save, cond, bt1, bf1, 0)
		branch(bt1, s1, thenPred, bt2, fl1)
		branch(bt2, s2, thenPred, elsPred, fl2)
		branch(bf1, s1, bf2, elsPred, fl1)
		branch(bf2, s2, thenPred, elsPred, fl2)
		t.cur = thenPred
		t.emit(ir.Instr{Op: ir.OpJmp, Blocks: []int{pending(then)}, Res: ir.NoValue})
		t.cur = elsPred
		t.emit(ir.Instr{Op: ir.OpJmp, Blocks: []int{pending(els)}, Res: ir.NoValue})
	}
	t.cur = save
	t.preds[[2]int{bi, then}] = thenPred
	t.preds[[2]int{bi, els}] = elsPred
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
