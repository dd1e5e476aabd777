// Package tmr implements an Elzar-style triple-modular-redundancy
// hardening pass: the correction-oriented counterpart of package ilr's
// detect-and-abort scheme.
//
// The pass creates two shadow data flows alongside the master flow —
// every replicable instruction is triplicated over disjoint register
// ranges — and inserts 2-of-3 majority-vote intrinsics (tmr.vote) at
// every externalization point: store operands, branch conditions, call
// arguments, output values, and return values. A vote with a single
// diverging replica *corrects* the outlier back to the majority value
// in all three registers and bumps the machine's corrected-fault
// counter; no transaction abort or re-execution is needed. Only a
// triple disagreement (outside the single-event-upset model) raises a
// detection failure.
//
// Coverage notes, mirroring ilr's Figure 3b/4b reasoning:
//
//   - Loads are triplicated through each replica's own address
//     register (the shadow loads are volatile so they cannot be
//     merged); a fault in any one replica's load result or address is
//     outvoted at the next externalization.
//   - Stores vote the value and address triples, then reload the
//     stored cell and compare against the written value, so a memory
//     fault on the store itself is still detected (correction is
//     impossible once only one copy of the data exists in memory).
//   - Conditional branches vote the condition triple and then route
//     control through a branch-level majority cascade: the master
//     branch picks a side, and the two shadow conditions confirm it,
//     with any single mis-taken branch outvoted by the other two.
package tmr

import (
	"repro/internal/ir"
)

// Options configures the pass.
type Options struct {
	// ControlFlow enables the branch-level majority cascade. When
	// disabled, conditional branches only vote the condition triple and
	// branch once on the master copy (cheaper, but a fault in the
	// branch unit itself then goes uncorrected).
	ControlFlow bool
}

// AllOptions returns the fully protected configuration.
func AllOptions() Options {
	return Options{ControlFlow: true}
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
		NValues:    3 * f.NValues, // shadow1 in [nOld, 2n), shadow2 in [2n, 3n)
		FrameBytes: f.FrameBytes,
		Attrs:      f.Attrs,
	}
	t.run()
	return t.nf
}

// flagS1 and flagS2 mark the two shadow flows. Both carry FlagShadow
// (to the machine's accounting every replica instruction is "shadow"
// work); FlagShadow2 distinguishes the third replica so fault
// campaigns can target each flow independently.
const (
	flagS1 = ir.FlagShadow
	flagS2 = ir.FlagShadow | ir.FlagShadow2
)

// transformer carries the per-function rewrite state.
type transformer struct {
	opts Options
	old  *ir.Func
	nf   *ir.Func
	nOld int

	cur          int            // current output block index
	firstDerived []int          // orig block -> first new block
	preds        map[[2]int]int // (origPred, origSucc) -> new pred block

	// lastReplicated is the master value whose two replica copies were
	// emitted by the immediately preceding instructions (peephole
	// state): a vote on a triple that was just seeded cannot correct
	// anything.
	lastReplicated ir.ValueID

	// curLine is the source line of the original instruction being
	// transformed; inserted replicas and votes inherit it so profiler
	// attribution stays per-line.
	curLine int32
}

// Branch targets pointing at original block indices are encoded as
// ^origIdx (negative) during emission and resolved in fixup.
func pending(orig int) int { return ^orig }

func (t *transformer) s1(v ir.ValueID) ir.ValueID { return v + ir.ValueID(t.nOld) }
func (t *transformer) s2(v ir.ValueID) ir.ValueID { return v + 2*ir.ValueID(t.nOld) }

func (t *transformer) s1Of(o ir.Operand) ir.Operand {
	if o.IsConst {
		return o
	}
	return ir.Reg(t.s1(o.Reg))
}

func (t *transformer) s2Of(o ir.Operand) ir.Operand {
	if o.IsConst {
		return o
	}
	return ir.Reg(t.s2(o.Reg))
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
	t.lastReplicated = ir.NoValue
}

// emitReplicaCopies seeds both shadow flows from a master value
// (parameters, load-once results, call results) and records the value
// for the vote peephole.
func (t *transformer) emitReplicaCopies(v ir.ValueID) {
	t.emit(ir.Instr{
		Op: ir.OpMov, Res: t.s1(v),
		Args: []ir.Operand{ir.Reg(v)}, Flags: flagS1 | ir.FlagReplica,
	})
	t.emit(ir.Instr{
		Op: ir.OpMov, Res: t.s2(v),
		Args: []ir.Operand{ir.Reg(v)}, Flags: flagS2 | ir.FlagReplica,
	})
	t.lastReplicated = v
}

// emitVote inserts "call tmr.vote(m, s1, s2)" for a register operand.
// Constants are never voted.
func (t *transformer) emitVote(o ir.Operand) {
	if o.IsConst {
		return
	}
	if t.lastReplicated == o.Reg {
		// Peephole: the replica copies were emitted immediately before,
		// so the three registers cannot have diverged yet.
		return
	}
	t.emit(ir.Instr{
		Op: ir.OpCall, Callee: "tmr.vote", Res: ir.NoValue,
		Args:  []ir.Operand{o, t.s1Of(o), t.s2Of(o)},
		Flags: ir.FlagCheck,
	})
}

// run drives the rewrite.
func (t *transformer) run() {
	t.lastReplicated = ir.NoValue
	t.firstDerived = make([]int, len(t.old.Blocks))
	for i := range t.firstDerived {
		t.firstDerived[i] = -1
	}
	for bi, b := range t.old.Blocks {
		nb := t.newBlock(b.Name)
		t.firstDerived[bi] = nb
		t.cur = nb
		t.lastReplicated = ir.NoValue
		if bi == 0 {
			// Replicate the incoming parameters into both shadow flows.
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
	// Phi group: master phis first, then shadow1, then shadow2, keeping
	// the group contiguous at the block head.
	var s1Phis, s2Phis []ir.Instr
	for i < len(b.Instrs) && b.Instrs[i].Op == ir.OpPhi {
		in := b.Instrs[i]
		t.curLine = in.Line
		t.emit(in.Clone())
		p1 := in.Clone()
		p1.Res = t.s1(in.Res)
		for k := range p1.Args {
			p1.Args[k] = t.s1Of(p1.Args[k])
		}
		p1.Flags |= flagS1
		s1Phis = append(s1Phis, p1)
		p2 := in.Clone()
		p2.Res = t.s2(in.Res)
		for k := range p2.Args {
			p2.Args[k] = t.s2Of(p2.Args[k])
		}
		p2.Flags |= flagS2
		s2Phis = append(s2Phis, p2)
		i++
	}
	for _, sp := range s1Phis {
		t.emit(sp)
	}
	for _, sp := range s2Phis {
		t.emit(sp)
	}
	for ; i < len(b.Instrs); i++ {
		t.emitInstr(bi, &b.Instrs[i])
	}
}

// replicate emits the master clone plus both shadow twins of a
// replicable instruction.
func (t *transformer) replicate(in *ir.Instr) {
	t.emit(in.Clone())
	r1 := in.Clone()
	r1.Res = t.s1(in.Res)
	for k := range r1.Args {
		r1.Args[k] = t.s1Of(r1.Args[k])
	}
	r1.Flags |= flagS1
	t.emit(r1)
	r2 := in.Clone()
	r2.Res = t.s2(in.Res)
	for k := range r2.Args {
		r2.Args[k] = t.s2Of(r2.Args[k])
	}
	r2.Flags |= flagS2
	t.emit(r2)
}

// emitInstr transforms one non-phi instruction.
func (t *transformer) emitInstr(bi int, in *ir.Instr) {
	t.curLine = in.Line
	switch {
	case in.Op.Replicable():
		t.replicate(in)
		return

	case in.Op == ir.OpLoad:
		// Triplicate the load through each replica's own address
		// register (the Figure 3b scheme extended to three flows): a
		// fault in any single replica's address or result is outvoted
		// later. Shadow loads are volatile so they cannot be merged
		// back into one access.
		t.emit(in.Clone())
		l1 := in.Clone()
		l1.Res = t.s1(in.Res)
		l1.Args[0] = t.s1Of(in.Args[0])
		l1.Volatile = true
		l1.Flags |= flagS1
		t.emit(l1)
		l2 := in.Clone()
		l2.Res = t.s2(in.Res)
		l2.Args[0] = t.s2Of(in.Args[0])
		l2.Volatile = true
		l2.Flags |= flagS2
		t.emit(l2)
		return

	case in.Op == ir.OpALoad:
		// Atomic loads must execute exactly once: vote the address,
		// load, reseed both replicas from the result.
		t.emitVote(in.Args[0])
		t.emit(in.Clone())
		t.emitReplicaCopies(in.Res)
		return

	case in.Op == ir.OpStore:
		// Vote value and address, store once, then reload the cell and
		// compare against the written value: once only one copy exists
		// in memory, a fault on the store can no longer be corrected,
		// but it is still detected (tx.check outside a transaction is a
		// hard failure).
		t.emitVote(in.Args[1])
		t.emitVote(in.Args[0])
		t.emit(in.Clone())
		tmp := t.nf.NewValue()
		t.emit(ir.Instr{
			Op: ir.OpLoad, Res: tmp,
			Args:     []ir.Operand{in.Args[0]},
			Volatile: true,
			Flags:    ir.FlagShadow,
		})
		t.emit(ir.Instr{
			Op: ir.OpCall, Callee: "tx.check", Res: ir.NoValue,
			Args:  []ir.Operand{in.Args[1], ir.Reg(tmp)},
			Flags: ir.FlagCheck | ir.FlagExtern,
		})
		return

	case in.Op == ir.OpAStore:
		// Atomic stores are irreversible externalization observed by
		// other threads: vote both operands eagerly, store once.
		t.emitVote(in.Args[1])
		t.emitVote(in.Args[0])
		t.emit(in.Clone())
		return

	case in.Op == ir.OpARMW:
		// Atomics act on shared state and must execute exactly once:
		// vote every operand, run the master op, reseed the replicas.
		for k := len(in.Args) - 1; k >= 0; k-- {
			t.emitVote(in.Args[k])
		}
		t.emit(in.Clone())
		t.emitReplicaCopies(in.Res)
		return

	case in.Op == ir.OpCall || in.Op == ir.OpCallInd:
		// Calls are not triplicated: arguments are voted before the
		// call and the return value reseeds both replicas.
		for k := len(in.Args) - 1; k >= 0; k-- {
			t.emitVote(in.Args[k])
		}
		t.emit(in.Clone())
		if in.Res != ir.NoValue {
			t.emitReplicaCopies(in.Res)
		}
		return

	case in.Op == ir.OpOut:
		t.emitVote(in.Args[0])
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
			t.emitVote(in.Args[0])
		}
		t.emit(in.Clone())
		return

	case in.Op == ir.OpTrap:
		t.emit(in.Clone())
		return
	}
	panic("tmr: unhandled op " + in.Op.String())
}

// emitBr protects a conditional branch. The condition triple is voted
// first (correcting any data-flow divergence); the branch itself is
// then routed through a majority cascade so that a fault in the branch
// unit — the taken direction flipping after the condition was read —
// is outvoted by the two shadow branches:
//
//	b:    vote(c, s1, s2); br c -> b.t1, b.f1
//	b.t1: br s1 -> b.jt, b.t2     // master said taken
//	b.t2: br s2 -> b.jt, b.jf     // s1 disagreed: s2 breaks the tie
//	b.f1: br s1 -> b.f2, b.jf     // master said not-taken
//	b.f2: br s2 -> b.jt, b.jf     // s1 disagreed: s2 breaks the tie
//	b.jt: jmp then
//	b.jf: jmp els
//
// On a fault-free run this costs two dynamic branches plus one jump;
// any single mis-taken branch still reaches the majority target.
func (t *transformer) emitBr(bi int, in *ir.Instr) {
	cond := in.Args[0]
	then, els := in.Blocks[0], in.Blocks[1]
	t.emitVote(cond)
	if cond.IsConst || !t.opts.ControlFlow || then == els {
		t.preds[[2]int{bi, then}] = t.cur
		t.preds[[2]int{bi, els}] = t.cur
		t.emit(ir.Instr{
			Op: ir.OpBr, Res: ir.NoValue,
			Args:   []ir.Operand{cond},
			Blocks: []int{pending(then), pending(els)},
		})
		return
	}
	name := t.nf.Blocks[t.cur].Name
	bt1 := t.newBlock(name + ".t1")
	bt2 := t.newBlock(name + ".t2")
	bf1 := t.newBlock(name + ".f1")
	bf2 := t.newBlock(name + ".f2")
	jt := t.newBlock(name + ".jt")
	jf := t.newBlock(name + ".jf")
	t.emit(ir.Instr{
		Op: ir.OpBr, Res: ir.NoValue,
		Args:   []ir.Operand{cond},
		Blocks: []int{bt1, bf1},
	})
	save := t.cur
	branch := func(blk int, c ir.Operand, thenB, elsB int, fl ir.InstrFlags) {
		t.cur = blk
		t.emit(ir.Instr{
			Op: ir.OpBr, Res: ir.NoValue,
			Args:   []ir.Operand{c},
			Blocks: []int{thenB, elsB},
			Flags:  fl,
		})
	}
	branch(bt1, t.s1Of(cond), jt, bt2, flagS1)
	branch(bt2, t.s2Of(cond), jt, jf, flagS2)
	branch(bf1, t.s1Of(cond), bf2, jf, flagS1)
	branch(bf2, t.s2Of(cond), jt, jf, flagS2)
	t.cur = jt
	t.emit(ir.Instr{Op: ir.OpJmp, Blocks: []int{pending(then)}, Res: ir.NoValue})
	t.cur = jf
	t.emit(ir.Instr{Op: ir.OpJmp, Blocks: []int{pending(els)}, Res: ir.NoValue})
	t.cur = save
	t.preds[[2]int{bi, then}] = jt
	t.preds[[2]int{bi, els}] = jf
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
				continue
			}
			for k, p := range in.PhiPreds {
				np, ok := t.preds[[2]int{p, oi}]
				if !ok {
					panic("tmr: unmapped phi predecessor")
				}
				in.PhiPreds[k] = np
			}
		}
	}
}
