// Dispatch: the one place instruction semantics are written. exec1C
// executes one compiled instruction; the two loops below decide how
// many run per scheduler turn. Stepwise dispatch (loopCN) runs one
// instruction of the runnable core with the smallest clock per turn;
// fused dispatch (loopC1, single-threaded NewFromProgram machines)
// runs a whole superinstruction per turn. The fused handlers keep
// exec1C's order of operations exactly — accounting, fault
// application, scheduler issues, HTM ticks — so the two dispatches are
// bit-identical (see compile.go for the contract). The slow paths
// (memRead/memWrite, commitReg, the intrinsic runtime, lock and
// barrier machinery, snapshots) are shared by both.
package vm

import (
	"fmt"
	"math"

	"repro/internal/htm"
	"repro/internal/ir"
	"repro/internal/obs"
)

// loopCompiled is the scheduler. Single-threaded runs take a tight
// core-pinned loop with superinstruction dispatch, unless the machine
// is stepwise (New); multi-threaded runs keep the one-instruction-per-
// turn smallest-clock interleaving (fused dispatch would reorder the
// globally numbered fault populations across cores).
func (m *Machine) loopCompiled() {
	if m.nthreads == 1 && !m.stepwise {
		m.loopC1(m.cores[0])
	} else {
		m.loopCN()
	}
}

// loopC1 drives a single core to completion.
func (m *Machine) loopC1(c *core) {
	for {
		if m.stats.DynInstrs > m.limit {
			m.status = StatusHung
			return
		}
		if c.state != threadRunnable {
			if c.state == threadBlocked {
				m.crash("deadlock: all threads blocked")
			}
			return
		}
		fr := &c.frames[len(c.frames)-1]
		cf := fr.cfn
		pc := cf.start[fr.block] + int32(fr.instr)
		ci := &cf.code[pc]
		if ci.fused > 1 {
			if (ci.fkind == fusePairCheck || ci.fkind == fuseTriadVote) &&
				len(m.faults) == 0 && m.tracer == nil {
				m.execFusedCheck(c, fr, cf, pc)
			} else {
				m.execFusedRun(c, fr, cf, pc)
			}
		} else {
			m.exec1C(c, fr, ci)
		}
		if m.status != StatusOK {
			return
		}
	}
}

// loopCN is the global scheduler: repeatedly run one instruction of the
// runnable core with the smallest local clock.
func (m *Machine) loopCN() {
	for {
		if m.stats.DynInstrs > m.limit {
			m.status = StatusHung
			return
		}
		var pick *core
		anyAlive := false
		for _, c := range m.cores {
			if c.state == threadDone {
				continue
			}
			anyAlive = true
			if c.state != threadRunnable {
				continue
			}
			if pick == nil || c.sched.Now() < pick.sched.Now() {
				pick = c
			}
		}
		if pick == nil {
			if anyAlive {
				m.crash("deadlock: all threads blocked")
			}
			return
		}
		fr := &pick.frames[len(pick.frames)-1]
		cf := fr.cfn
		m.exec1C(pick, fr, &cf.code[cf.start[fr.block]+int32(fr.instr)])
		if m.status != StatusOK {
			return
		}
	}
}

// aluEval evaluates a pure register-only instruction against the
// frame, returning the result, the operands' readiness, and a crash
// reason for trapping instructions (division by zero) or unlowered
// ops. Shared by exec1C and both fused handlers.
func aluEval(fr *frame, ci *cinstr) (res, opsReady uint64, crash string) {
	var v0, v1, v2 uint64
	args := ci.args
	if len(args) > 0 {
		v0, opsReady = fr.cval(args[0])
		if len(args) > 1 {
			var r uint64
			v1, r = fr.cval(args[1])
			if r > opsReady {
				opsReady = r
			}
			if len(args) > 2 {
				v2, r = fr.cval(args[2])
				if r > opsReady {
					opsReady = r
				}
			}
		}
	}
	switch ci.op {
	case ir.OpMov:
		res = v0
	case ir.OpAdd:
		res = v0 + v1
	case ir.OpSub:
		res = v0 - v1
	case ir.OpMul:
		res = v0 * v1
	case ir.OpDiv:
		if v1 == 0 {
			return 0, 0, "division by zero"
		}
		res = uint64(int64(v0) / int64(v1))
	case ir.OpRem:
		if v1 == 0 {
			return 0, 0, "remainder by zero"
		}
		res = uint64(int64(v0) % int64(v1))
	case ir.OpAnd:
		res = v0 & v1
	case ir.OpOr:
		res = v0 | v1
	case ir.OpXor:
		res = v0 ^ v1
	case ir.OpShl:
		res = v0 << (v1 & 63)
	case ir.OpShr:
		res = v0 >> (v1 & 63)
	case ir.OpSar:
		res = uint64(int64(v0) >> (v1 & 63))
	case ir.OpNot:
		res = ^v0
	case ir.OpFAdd:
		res = f2u(u2f(v0) + u2f(v1))
	case ir.OpFSub:
		res = f2u(u2f(v0) - u2f(v1))
	case ir.OpFMul:
		res = f2u(u2f(v0) * u2f(v1))
	case ir.OpFDiv:
		res = f2u(u2f(v0) / u2f(v1))
	case ir.OpFSqrt:
		res = f2u(math.Sqrt(u2f(v0)))
	case ir.OpFExp:
		res = f2u(math.Exp(u2f(v0)))
	case ir.OpFLog:
		res = f2u(math.Log(u2f(v0)))
	case ir.OpFAbs:
		res = f2u(math.Abs(u2f(v0)))
	case ir.OpSIToFP:
		res = f2u(float64(int64(v0)))
	case ir.OpFPToSI:
		res = uint64(int64(u2f(v0)))
	case ir.OpCmp:
		res = cmpEval(ci.pred, v0, v1)
	case ir.OpSelect:
		if v0 != 0 {
			res = v1
		} else {
			res = v2
		}
	case ir.OpFrameAddr:
		res = fr.base + uint64(ci.off)
	default:
		return 0, 0, fmt.Sprintf("unimplemented op %v", ci.op)
	}
	return res, opsReady, ""
}

// exec1C executes one compiled instruction.
func (m *Machine) exec1C(c *core, fr *frame, ci *cinstr) {
	op := ci.op
	if op == copFellOff {
		m.crash(fmt.Sprintf("fell off block %s in %s",
			fr.fn.Blocks[fr.block].Name, fr.fn.Name))
		return
	}
	m.stats.DynInstrs++
	if m.prof != nil && op != ir.OpPhi {
		m.prof.Note(fr.fn, ci.in)
	}

	var res, lat, opsReady uint64
	wrote := false
	switch op {
	case ir.OpPhi:
		m.execPhiGroupC(c, fr, ci.phi)
		return
	case ir.OpCall:
		if ci.t1 == 1 {
			m.execIntrinsicC(c, fr, ci)
		} else {
			m.pushFrameC(c, fr, m.prog.funcs[ci.t0], ci.args, ci.res, ci.lat)
		}
		return
	case ir.OpCallInd:
		m.execCallIndC(c, fr, ci)
		return
	case ir.OpBr, ir.OpJmp, ir.OpRet, ir.OpTrap:
		m.execTerminatorC(c, fr, ci)
		return
	case copBadCall:
		m.crash("call to unknown function " + ci.in.Callee)
		return
	case ir.OpLoad, ir.OpALoad:
		addr, r0 := fr.cval(ci.args[0])
		opsReady = r0
		v, ok := m.memRead(c, addr)
		if !ok {
			return
		}
		res, wrote = v, true
		lat = c.loadLatency(addr, ci.lat)
	case ir.OpStore, ir.OpAStore:
		addr, r0 := fr.cval(ci.args[0])
		val, r1 := fr.cval(ci.args[1])
		opsReady = max(r0, r1)
		if !m.memWrite(c, addr, val) {
			return
		}
		lat = ci.lat
	case ir.OpARMW:
		addr, r0 := fr.cval(ci.args[0])
		v1, r1 := fr.cval(ci.args[1])
		opsReady = max(r0, r1)
		var v2 uint64
		if len(ci.args) > 2 {
			var r2 uint64
			v2, r2 = fr.cval(ci.args[2])
			opsReady = max(opsReady, r2)
		}
		old, ok := m.memRead(c, addr)
		if !ok {
			return
		}
		switch ci.rmw {
		case ir.RMWAdd:
			if !m.memWrite(c, addr, old+v1) {
				return
			}
		case ir.RMWXchg:
			if !m.memWrite(c, addr, v1) {
				return
			}
		case ir.RMWCAS:
			if old == v1 {
				if !m.memWrite(c, addr, v2) {
					return
				}
			}
		}
		res, wrote = old, true
		lat = ci.lat
	case ir.OpOut:
		// Externalization is unfriendly to a transaction and dooms it;
		// the abort is observed right away, so the value is emitted once,
		// by the retry or the fallback run.
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		var v0 uint64
		v0, opsReady = fr.cval(ci.args[0])
		if len(m.output) < m.outputLimit {
			m.output = append(m.output, v0)
		}
		lat = ci.lat
	default:
		var reason string
		res, opsReady, reason = aluEval(fr, ci)
		if reason != "" {
			m.crash(reason)
			return
		}
		wrote = true
		lat = ci.lat
	}

	ready := c.sched.Issue(lat, opsReady)
	if wrote && ci.res >= 0 {
		if len(m.faults) == 0 && m.tracer == nil {
			// Fast-path commit: same accounting as commitReg without
			// the fault-plan scan and trace hook.
			m.stats.RegWrites++
			if ci.shadow {
				m.stats.ShadowRegWrites++
			}
			if ci.shadow2 {
				m.stats.Shadow2RegWrites++
			}
			fr.regs[ci.res] = res
			fr.ready[ci.res] = ready
		} else {
			m.commitReg(c, fr, ci.in, res, ready)
		}
	}
	fr.instr++
	m.afterInstr(c)
}

// phiUpd buffers one phi commit (values are all read before any
// write, preserving the parallel-move semantics).
type phiUpd struct {
	in         *ir.Instr
	res        int32
	shadow     bool
	shadow2    bool
	val, ready uint64
}

// execPhiGroupC executes a pre-batched phi run. Every phi counts as
// one instruction (the caller counted the first; each move recounts
// itself and one count is given back on success; a missing edge
// crashes on the offending phi without the give-back) and as one
// register write.
func (m *Machine) execPhiGroupC(c *core, fr *frame, g *cphiGroup) {
	var pp *cphiPred
	for i := range g.preds {
		if g.preds[i].pred == fr.prevBlk {
			pp = &g.preds[i]
			break
		}
	}
	if pp == nil {
		m.stats.DynInstrs++
		if m.prof != nil {
			m.prof.Note(fr.fn, g.first)
		}
		m.crash(fmt.Sprintf("phi in %s/%s has no edge from block %d",
			fr.fn.Name, fr.fn.Blocks[fr.block].Name, fr.prevBlk))
		return
	}
	ups := m.phiScratch[:0]
	for i := range pp.moves {
		mv := &pp.moves[i]
		m.stats.DynInstrs++
		if m.prof != nil {
			m.prof.Note(fr.fn, mv.in)
		}
		v, r := fr.cval(mv.src)
		ready := c.sched.Issue(latPhi, r)
		ups = append(ups, phiUpd{in: mv.in, res: mv.res, shadow: mv.shadow, shadow2: mv.shadow2, val: v, ready: ready})
	}
	m.phiScratch = ups[:0]
	if pp.bad != nil {
		m.stats.DynInstrs++
		if m.prof != nil {
			m.prof.Note(fr.fn, pp.bad)
		}
		m.crash(fmt.Sprintf("phi in %s/%s has no edge from block %d",
			fr.fn.Name, fr.fn.Blocks[fr.block].Name, fr.prevBlk))
		return
	}
	m.stats.DynInstrs-- // the dispatch preamble already counted the first phi
	if len(m.faults) == 0 && m.tracer == nil {
		for i := range ups {
			u := &ups[i]
			m.stats.RegWrites++
			if u.shadow {
				m.stats.ShadowRegWrites++
			}
			if u.shadow2 {
				m.stats.Shadow2RegWrites++
			}
			fr.regs[u.res] = u.val
			fr.ready[u.res] = u.ready
		}
	} else {
		for i := range ups {
			u := &ups[i]
			m.commitReg(c, fr, u.in, u.val, u.ready)
		}
	}
	fr.instr = int(g.end)
	m.afterInstr(c)
}

// execTerminatorC handles br/jmp/ret/trap over pre-resolved targets.
func (m *Machine) execTerminatorC(c *core, fr *frame, ci *cinstr) {
	switch ci.op {
	case ir.OpBr:
		v, r := fr.cval(ci.args[0])
		c.sched.Issue(ci.lat, r)
		m.stats.CondBranches++
		taken := v != 0
		if len(m.faults) != 0 {
			for _, p := range m.faults {
				if p.Injected || p.Model != FaultBranch || p.TargetIndex != m.stats.CondBranches-1 {
					continue
				}
				taken = !taken
				p.Injected = true
				p.Where = fmt.Sprintf("%s/%s br", fr.fn.Name, fr.fn.Blocks[fr.block].Name)
				m.emitFault(c, p)
			}
		}
		target := ci.t1
		if taken {
			target = ci.t0
		}
		fr.prevBlk = fr.block
		fr.block = int(target)
		fr.instr = 0
	case ir.OpJmp:
		c.sched.Issue(ci.lat, 0)
		fr.prevBlk = fr.block
		fr.block = int(ci.t0)
		fr.instr = 0
	case ir.OpRet:
		var val, ready uint64
		hasVal := len(ci.args) == 1
		if hasVal {
			val, ready = fr.cval(ci.args[0])
		}
		c.sched.Issue(ci.lat, ready)
		popped := c.frames[len(c.frames)-1]
		c.release(c.frames[len(c.frames)-1:])
		c.frames = c.frames[:len(c.frames)-1]
		if len(c.frames) == 0 {
			c.state = threadDone
			c.doneVal = val
			return
		}
		caller := &c.frames[len(c.frames)-1]
		if popped.retReady {
			if !hasVal {
				val = 0
			}
			caller.setReg(popped.retReg, val, c.sched.Now())
		}
		caller.instr++
	case ir.OpTrap:
		m.crash("trap instruction")
		return
	}
	m.afterInstr(c)
}

// pushFrameC enters a callee: operand gather, issue, stack-overflow
// check, frame construction.
func (m *Machine) pushFrameC(c *core, fr *frame, cfn *cfunc, args []carg, res int32, lat uint64) {
	callee := cfn.fn
	var opsReady uint64
	for _, a := range args {
		if _, r := fr.cval(a); r > opsReady {
			opsReady = r
		}
	}
	ready := c.sched.Issue(lat, opsReady)
	newBase := fr.base + uint64(fr.fn.FrameBytes)
	if rmd := newBase % 16; rmd != 0 {
		newBase += 16 - rmd
	}
	if newBase+uint64(callee.FrameBytes) > c.stackLimit || len(c.frames) > 512 {
		m.crash("stack overflow in " + callee.Name)
		return
	}
	regs, rdy := c.file(callee.NValues)
	for i, a := range args {
		regs[i], _ = fr.cval(a)
		rdy[i] = ready
	}
	c.frames = append(c.frames, frame{
		fn:       callee,
		cfn:      cfn,
		regs:     regs,
		ready:    rdy,
		base:     newBase,
		retReg:   ir.ValueID(res),
		retReady: res >= 0,
	})
}

// execCallIndC dispatches an indirect call: arg0 indexes the module
// function table, and its readiness is not charged. A corrupted index
// crashes, like a wild function pointer would.
func (m *Machine) execCallIndC(c *core, fr *frame, ci *cinstr) {
	idxv, _ := fr.cval(ci.args[0])
	if idxv >= uint64(len(m.Mod.Funcs)) {
		m.crash(fmt.Sprintf("indirect call through invalid index %d", idxv))
		return
	}
	cfn := m.prog.funcs[idxv]
	if cfn.fn.NParams != len(ci.args)-1 {
		m.crash(fmt.Sprintf("indirect call arity mismatch calling %s", cfn.fn.Name))
		return
	}
	m.pushFrameC(c, fr, cfn, ci.args[1:], ci.res, ci.lat)
}

// execIntrinsicC gathers operands from pre-resolved slots and enters
// the intrinsic runtime by id — no name lookup on this path.
func (m *Machine) execIntrinsicC(c *core, fr *frame, ci *cinstr) {
	var buf [6]uint64
	var vals []uint64
	if n := len(ci.args); n <= len(buf) {
		vals = buf[:n]
	} else {
		vals = make([]uint64, n)
	}
	var opsReady uint64
	for i, a := range ci.args {
		v, r := fr.cval(a)
		vals[i] = v
		if r > opsReady {
			opsReady = r
		}
	}
	m.execIntrinsicID(c, fr, ci.in, intrID(ci.t0), vals, opsReady, ci.lat)
}

// execFusedRun executes a marked superinstruction: a straight-line
// run of fusable constituents without returning to the scheduler.
// Each constituent keeps the full per-instruction protocol; any
// status change, HTM abort, or budget exhaustion exits the run.
func (m *Machine) execFusedRun(c *core, fr *frame, cf *cfunc, pc int32) {
	end := pc + cf.code[pc].fused
	for {
		ci := &cf.code[pc]
		m.stats.DynInstrs++
		if m.prof != nil {
			m.prof.Note(fr.fn, ci.in)
		}
		if ci.op == ir.OpCall {
			if !m.execFusedIntrinsic(c, fr, ci) {
				return
			}
		} else {
			res, opsReady, reason := aluEval(fr, ci)
			if reason != "" {
				m.crash(reason)
				return
			}
			ready := c.sched.Issue(ci.lat, opsReady)
			if ci.res >= 0 {
				if len(m.faults) == 0 && m.tracer == nil {
					m.stats.RegWrites++
					if ci.shadow {
						m.stats.ShadowRegWrites++
					}
					if ci.shadow2 {
						m.stats.Shadow2RegWrites++
					}
					fr.regs[ci.res] = res
					fr.ready[ci.res] = ready
				} else {
					m.commitReg(c, fr, ci.in, res, ready)
				}
			}
			fr.instr++
		}
		// Inline afterInstr; an abort restored the snapshot frames, so
		// the run must stop immediately.
		if m.HTM.InTx(c.id) {
			m.HTM.Tick(c.id, c.sched.Now())
			if m.HTM.Doomed(c.id) != htm.CauseNone {
				m.HTM.Abort(c.id, c.sched.Now(), htm.CauseNone)
				m.recoverAfterAbort(c)
				return
			}
		}
		pc++
		if pc >= end {
			return
		}
		if m.stats.DynInstrs > m.limit {
			m.status = StatusHung
			return
		}
	}
}

// execFusedIntrinsic handles the fusable intrinsics (tx.counter_inc,
// tx.check, tmr.vote) inside a run. It reports false when the run must
// stop (detection outside a transaction, or an uncorrectable vote).
// The caller performs the trailing HTM tick.
func (m *Machine) execFusedIntrinsic(c *core, fr *frame, ci *cinstr) bool {
	if intrID(ci.t0) == intrTxCounterInc {
		v0, r := fr.cval(ci.args[0])
		c.sched.Issue(ci.lat, r)
		c.counter += int64(v0)
		fr.instr++
		return true
	}
	var buf [8]uint64
	vals := buf[:0]
	var opsReady uint64
	for _, a := range ci.args {
		v, r := fr.cval(a)
		vals = append(vals, v)
		if r > opsReady {
			opsReady = r
		}
	}
	c.sched.Issue(ci.lat, opsReady)
	if intrID(ci.t0) == intrTmrVote {
		if !m.tmrVote(c, fr, ci.in, vals) {
			return false
		}
		fr.instr++
		return true
	}
	// tx.check
	mismatch := false
	for i := 0; i+1 < len(vals); i += 2 {
		if vals[i] != vals[i+1] {
			mismatch = true
			if m.obsRing != nil {
				m.obsRing.Emit(obs.Event{
					Kind: obs.KindCheckDiverge, Actor: m.obsBase + int32(c.id),
					Time: c.sched.Now(), A: vals[i], B: vals[i+1],
					Label: fr.fn.Name + "/" + fr.fn.Blocks[fr.block].Name,
				})
			}
			break
		}
	}
	if mismatch {
		if m.HTM.InTx(c.id) && !m.Cfg.DisableRecovery {
			c.diverged = true
		} else {
			m.status = StatusILRDetected
			return false
		}
	}
	fr.instr++
	return true
}

// execFusedCheck is the specialized handler for the canonical
// hardening superinstructions: the ILR pair-check (master op + shadow
// op + tx.check of their results) and the TMR triad-vote (master op +
// both shadow twins + tmr.vote of their results). It is dispatched
// only when no fault plans or tracer are installed, so commits take
// the branch-free fast path; constituent accounting
// (DynInstrs, profiler, register-write populations, HTM ticks,
// budget) is identical to unfused execution.
func (m *Machine) execFusedCheck(c *core, fr *frame, cf *cfunc, pc int32) {
	n := int32(cf.code[pc].fused)
	run := cf.code[pc : pc+n : pc+n]
	for k := range run {
		ci := &run[k]
		m.stats.DynInstrs++
		if m.prof != nil {
			m.prof.Note(fr.fn, ci.in)
		}
		if ci.op == ir.OpCall {
			if !m.execFusedIntrinsic(c, fr, ci) {
				return
			}
		} else {
			res, opsReady, _ := aluEval(fr, ci) // pairable ops cannot trap
			ready := c.sched.Issue(ci.lat, opsReady)
			m.stats.RegWrites++
			if ci.shadow {
				m.stats.ShadowRegWrites++
			}
			if ci.shadow2 {
				m.stats.Shadow2RegWrites++
			}
			fr.regs[ci.res] = res
			fr.ready[ci.res] = ready
			fr.instr++
		}
		if m.HTM.InTx(c.id) {
			m.HTM.Tick(c.id, c.sched.Now())
			if m.HTM.Doomed(c.id) != htm.CauseNone {
				m.HTM.Abort(c.id, c.sched.Now(), htm.CauseNone)
				m.recoverAfterAbort(c)
				return
			}
		}
		if int32(k) < n-1 && m.stats.DynInstrs > m.limit {
			m.status = StatusHung
			return
		}
	}
}
