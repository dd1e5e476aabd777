// Superinstruction fusion for fused dispatch. The hardening
// passes emit long straight-line stretches of register-only code —
// the ILR master/shadow pairs, their tx.check comparisons, and the
// tx.counter_inc latch bookkeeping. The fuser marks maximal runs of
// such instructions so the dispatch loop executes a whole run per
// scheduler turn instead of one instruction.
//
// Fusion is a dispatch optimization only; every constituent still
// performs its full per-instruction protocol (DynInstrs accounting,
// profiler attribution, register-write fault population, HTM tick +
// doom handling, budget check), so fault sites, obs events and
// profiles are bit-identical to stepwise dispatch, which ignores the
// marks.
//
// What a fused run must NOT cross:
//
//   - externalization points (out) and every memory access — they
//     consult the HTM write/read sets and the memory fault models;
//   - calls and returns — they replace the active frame;
//   - transaction boundaries (tx.begin, tx.end, tx.cond_split, the
//     lock/elision intrinsics) — they take or restore snapshots, and
//     snapshots must only ever point at run boundaries;
//   - terminators, phis, and block boundaries — control may enter a
//     block only at its head, which is always a run head.
//
// The two tx helpers that ARE fusable (tx.check, tx.counter_inc)
// neither move control nor touch the frame stack; an abort raised by
// their HTM tick exits the run immediately, and the snapshot it
// restores was taken at a non-fused call, i.e. at a run boundary.
//
// Fused dispatch is only used on single-threaded runs: the fault
// populations (RegWrites, MemAccesses, CondBranches) are numbered
// globally across cores, and executing several instructions per
// scheduler turn would reorder that numbering between cores.
// Multi-threaded and stepwise (New) machines run the same compiled
// program through the one-instruction-per-turn dispatch path instead.
package vm

import "repro/internal/ir"

// fusableALU reports whether op is a pure register-only operation the
// generic run handler may fuse. Div/Rem are included (their
// division-by-zero crash exits the run like any other status change).
func fusableALU(op ir.Op) bool {
	switch op {
	case ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar, ir.OpNot,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFSqrt, ir.OpFExp,
		ir.OpFLog, ir.OpFAbs, ir.OpSIToFP, ir.OpFPToSI, ir.OpCmp,
		ir.OpSelect, ir.OpFrameAddr:
		return true
	}
	return false
}

// fusable reports whether the lowered instruction may join a run.
func fusable(ci *cinstr) bool {
	if fusableALU(ci.op) {
		return true
	}
	if ci.op == ir.OpCall && ci.t1 == 1 {
		id := intrID(ci.t0)
		return id == intrTxCheck || id == intrTxCounterInc || id == intrTmrVote
	}
	return false
}

// pairable restricts the specialized master+shadow+check handler to
// ops that cannot trap (no div/rem), keeping its commit path
// branch-free.
func pairable(ci *cinstr) bool {
	return fusableALU(ci.op) && ci.op != ir.OpDiv && ci.op != ir.OpRem && ci.res >= 0
}

// fuseFunc marks maximal fusable runs in the compiled function and
// classifies the ILR pair-check triad.
func fuseFunc(cf *cfunc) {
	for i := 0; i < len(cf.code); {
		if !fusable(&cf.code[i]) {
			i++
			continue
		}
		j := i
		for j < len(cf.code) && fusable(&cf.code[j]) {
			j++
		}
		if n := j - i; n > 1 {
			head := &cf.code[i]
			head.fused = int32(n)
			head.fkind = fuseRun
			if n == 3 && isPairCheck(cf.code[i:j]) {
				head.fkind = fusePairCheck
			}
			if n == 4 && isTriadVote(cf.code[i:j]) {
				head.fkind = fuseTriadVote
			}
		}
		i = j
	}
}

// isPairCheck recognizes the canonical ILR superinstruction: a master
// op, its shadow twin, and the tx.check comparing exactly their two
// results.
func isPairCheck(run []cinstr) bool {
	i0, i1, i2 := &run[0], &run[1], &run[2]
	if !pairable(i0) || !pairable(i1) || i0.shadow || !i1.shadow {
		return false
	}
	if i2.op != ir.OpCall || i2.t1 != 1 || intrID(i2.t0) != intrTxCheck {
		return false
	}
	if len(i2.args) != 2 {
		return false
	}
	return i2.args[0].r == i0.res && i2.args[1].r == i1.res
}

// isTriadVote recognizes the canonical TMR superinstruction: a master
// op, its two shadow twins, and the tmr.vote over exactly their three
// results.
func isTriadVote(run []cinstr) bool {
	i0, i1, i2, i3 := &run[0], &run[1], &run[2], &run[3]
	if !pairable(i0) || !pairable(i1) || !pairable(i2) {
		return false
	}
	if i0.shadow || !i1.shadow || i1.shadow2 || !i2.shadow2 {
		return false
	}
	if i3.op != ir.OpCall || i3.t1 != 1 || intrID(i3.t0) != intrTmrVote {
		return false
	}
	if len(i3.args) != 3 {
		return false
	}
	return i3.args[0].r == i0.res && i3.args[1].r == i1.res && i3.args[2].r == i2.res
}
