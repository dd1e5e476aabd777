// Dispatch: the one place instruction semantics are written. exec1C
// executes one compiled instruction, the register-only (ALU) ops
// included; loopCN decides which core runs it. Every machine takes the
// same loop at any thread count. The slow paths (memRead/memWrite,
// commitReg, the intrinsic runtime, lock and barrier machinery,
// snapshots) live next to the state they change.
//
// The interleaving is defined one instruction at a time: the runnable
// core with the smallest clock, the lowest index on a tie, runs next.
// loopCN gives that core a run-ahead turn instead of one instruction:
// it keeps running it while it would be picked again. The other cores'
// clocks and states change only when the running core wakes one of
// them (Machine.wake), so the turn ends when its clock passes a bound
// computed once at the pick, when it stops being runnable, or at a
// wake — exactly where a pick after every instruction would have
// switched cores. A stepwise machine (New) ends the turn after every
// instruction: it is the reference the run-ahead loop is tested
// against.
package vm

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// loopCN is the scheduler: it gives turns to the core pick chooses
// until the run ends, blocks on a deadlock, or passes m.limit.
func (m *Machine) loopCN() {
	for {
		if m.stats.DynInstrs > m.limit {
			m.status = StatusHung
			return
		}
		c, until := m.pick()
		if c == nil {
			return
		}
		if m.stepwise {
			until = 0
		}
		wakes := m.wakes
		for {
			fr := &c.frames[len(c.frames)-1]
			m.exec1C(c, fr, &fr.code[fr.pc])
			if m.status != StatusOK {
				return
			}
			if c.state != threadRunnable || c.sched.Now() >= until || m.wakes != wakes {
				break
			}
			if m.stats.DynInstrs > m.limit {
				m.status = StatusHung
				return
			}
		}
	}
}

// pick returns the runnable core with the smallest clock (the lowest
// index on a tie) and the clock at which another runnable core would be
// picked instead: the smallest clock of a lower-index core, or one past
// the smallest clock of a higher-index one, whichever is smaller. A
// picked core would be picked again while its clock stays below that
// bound and no core is woken. pick returns nil, after crashing the run
// if a thread is still blocked, when no core is runnable.
func (m *Machine) pick() (pick *core, until uint64) {
	until = math.MaxUint64
	var now uint64
	blocked := false
	for _, c := range m.cores {
		if c.state != threadRunnable {
			blocked = blocked || c.state == threadBlocked
			continue
		}
		switch t := c.sched.Now(); {
		case pick == nil:
			pick, now = c, t
		case t < now:
			// Every core before c is bounded by its own clock, and the
			// previous pick's is the smallest of them.
			pick, now, until = c, t, now
		default:
			until = min(until, t+1) // the pick wins a tie against c
		}
	}
	if pick == nil && blocked {
		m.crash("deadlock: all threads blocked")
	}
	return pick, until
}

// exec1C executes one compiled instruction.
func (m *Machine) exec1C(c *core, fr *frame, ci *cinstr) {
	op := ci.op
	m.stats.DynInstrs++
	if m.prof != nil && op != ir.OpPhi && op != copFellOff {
		m.prof.Note(fr.fn, ci.in)
	}

	var res, opsReady uint64
	wrote := false
	lat := ci.lat
	switch op {
	case ir.OpPhi:
		m.execPhiGroupC(c, fr, ci.phi)
		return
	case ir.OpCall:
		if ci.t1 != 1 {
			m.pushFrameC(c, fr, m.prog.funcs[ci.t0], ci.args, ci.res, ci.lat)
			return
		}
		switch intrID(ci.t0) {
		case intrTxCounterInc:
			// The thread-local instruction counter of §3.2.
			var v uint64
			v, opsReady = fr.cval(ci.args[0])
			c.counter += int64(v)
		case intrTxCheck:
			// The relaxed ILR check (§3.3) compares master/shadow pairs
			// without branching; only a mismatch leaves this path.
			args, diverged := ci.args, -1
			for i := 0; i < len(args); i += 2 {
				x, r := fr.cval(args[i])
				opsReady = max(opsReady, r)
				if i+1 < len(args) {
					y, r := fr.cval(args[i+1])
					opsReady = max(opsReady, r)
					if x != y && diverged < 0 {
						diverged = i
					}
				}
			}
			if diverged >= 0 {
				m.checkDiverged(c, fr, ci, diverged, opsReady)
				return
			}
		default:
			m.execIntrinsicC(c, fr, ci)
			return
		}
	case ir.OpCallInd:
		m.execCallIndC(c, fr, ci)
		return
	case ir.OpBr, ir.OpJmp, ir.OpRet, ir.OpTrap:
		m.execTerminatorC(c, fr, ci)
		return
	case copFellOff:
		m.stats.DynInstrs-- // the end of a block is no instruction
		m.crash(fmt.Sprintf("fell off block %s in %s",
			fr.fn.Blocks[fr.block].Name, fr.fn.Name))
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
	case ir.OpOut:
		// Externalization is unfriendly to a transaction and dooms it;
		// the abort is observed right away, so the value is emitted once,
		// by the retry or the fallback run.
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		var v uint64
		v, opsReady = fr.cval(ci.args[0])
		if len(m.output) < m.outputLimit {
			m.output = append(m.output, v)
		}
	default:
		var v0, v1, v2 uint64
		if args := ci.args; len(args) > 0 {
			v0, opsReady = fr.cval(args[0])
			if len(args) > 1 {
				var r uint64
				v1, r = fr.cval(args[1])
				opsReady = max(opsReady, r)
				if len(args) > 2 {
					v2, r = fr.cval(args[2])
					opsReady = max(opsReady, r)
				}
			}
		}
		switch op {
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
				m.crash("division by zero")
				return
			}
			res = uint64(int64(v0) / int64(v1))
		case ir.OpRem:
			if v1 == 0 {
				m.crash("remainder by zero")
				return
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
			m.crash(fmt.Sprintf("unimplemented op %v", op))
			return
		}
		wrote = true
	}

	ready := c.sched.Issue(lat, opsReady)
	if wrote && ci.res >= 0 {
		if m.pending == 0 && m.tracer == nil {
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
	fr.pc++
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
	if m.pending == 0 && m.tracer == nil {
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
	fr.pc = int(g.end)
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
		if m.pending != 0 {
			for _, p := range m.faults {
				if p.Injected || p.Model != FaultBranch || p.TargetIndex != m.stats.CondBranches-1 {
					continue
				}
				taken = !taken
				p.Injected = true
				m.pending--
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
		fr.pc = int(fr.cfn.start[target])
	case ir.OpJmp:
		c.sched.Issue(ci.lat, 0)
		fr.prevBlk = fr.block
		fr.block = int(ci.t0)
		fr.pc = int(fr.cfn.start[ci.t0])
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
		caller.pc++
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
		code:     cfn.code,
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
