package vm

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/ir"
)

// operand evaluates an operand in the current frame, returning the
// value and the cycle at which it becomes available.
func (fr *frame) operand(o ir.Operand) (uint64, uint64) {
	if o.IsConst {
		return o.Const, 0
	}
	return fr.regs[o.Reg], fr.ready[o.Reg]
}

// setReg writes a result register and its readiness cycle.
func (fr *frame) setReg(v ir.ValueID, val, ready uint64) {
	fr.regs[v] = val
	fr.ready[v] = ready
}

// step executes one instruction on core c.
func (m *Machine) step(c *core) {
	fr := &c.frames[len(c.frames)-1]
	b := fr.fn.Blocks[fr.block]
	if fr.instr >= len(b.Instrs) {
		m.crash(fmt.Sprintf("fell off block %s in %s", b.Name, fr.fn.Name))
		return
	}
	in := &b.Instrs[fr.instr]
	if m.breakpoints != nil {
		m.checkBreakpoints(c, fr)
	}
	m.stats.DynInstrs++
	if m.prof != nil && in.Op != ir.OpPhi {
		// Phi groups are attributed in execPhiGroup, one note per phi,
		// mirroring the DynInstrs accounting exactly.
		m.prof.Note(fr.fn, in)
	}

	switch in.Op {
	case ir.OpPhi:
		// Phis at a block head are evaluated in parallel with respect
		// to the predecessor's values; execute the whole group at once.
		m.execPhiGroup(c, fr, b)
		return
	case ir.OpCall:
		m.execCall(c, in)
		return
	case ir.OpCallInd:
		m.execCallInd(c, in)
		return
	case ir.OpBr, ir.OpJmp, ir.OpRet, ir.OpTrap:
		m.execTerminator(c, fr, in)
		return
	}

	lat := cpu.Latency(in.Op)
	var opsReady uint64
	vals := make([]uint64, len(in.Args))
	for i, a := range in.Args {
		v, r := fr.operand(a)
		vals[i] = v
		if r > opsReady {
			opsReady = r
		}
	}

	var res uint64
	wrote := false
	switch in.Op {
	case ir.OpMov:
		res, wrote = vals[0], true
	case ir.OpAdd:
		res, wrote = vals[0]+vals[1], true
	case ir.OpSub:
		res, wrote = vals[0]-vals[1], true
	case ir.OpMul:
		res, wrote = vals[0]*vals[1], true
	case ir.OpDiv:
		if vals[1] == 0 {
			m.crash("division by zero")
			return
		}
		res, wrote = uint64(int64(vals[0])/int64(vals[1])), true
	case ir.OpRem:
		if vals[1] == 0 {
			m.crash("remainder by zero")
			return
		}
		res, wrote = uint64(int64(vals[0])%int64(vals[1])), true
	case ir.OpAnd:
		res, wrote = vals[0]&vals[1], true
	case ir.OpOr:
		res, wrote = vals[0]|vals[1], true
	case ir.OpXor:
		res, wrote = vals[0]^vals[1], true
	case ir.OpShl:
		res, wrote = vals[0]<<(vals[1]&63), true
	case ir.OpShr:
		res, wrote = vals[0]>>(vals[1]&63), true
	case ir.OpSar:
		res, wrote = uint64(int64(vals[0])>>(vals[1]&63)), true
	case ir.OpNot:
		res, wrote = ^vals[0], true
	case ir.OpFAdd:
		res, wrote = f2u(u2f(vals[0])+u2f(vals[1])), true
	case ir.OpFSub:
		res, wrote = f2u(u2f(vals[0])-u2f(vals[1])), true
	case ir.OpFMul:
		res, wrote = f2u(u2f(vals[0])*u2f(vals[1])), true
	case ir.OpFDiv:
		res, wrote = f2u(u2f(vals[0])/u2f(vals[1])), true
	case ir.OpFSqrt:
		res, wrote = f2u(math.Sqrt(u2f(vals[0]))), true
	case ir.OpFExp:
		res, wrote = f2u(math.Exp(u2f(vals[0]))), true
	case ir.OpFLog:
		res, wrote = f2u(math.Log(u2f(vals[0]))), true
	case ir.OpFAbs:
		res, wrote = f2u(math.Abs(u2f(vals[0]))), true
	case ir.OpSIToFP:
		res, wrote = f2u(float64(int64(vals[0]))), true
	case ir.OpFPToSI:
		res, wrote = uint64(int64(u2f(vals[0]))), true
	case ir.OpCmp:
		res, wrote = cmpEval(in.Pred, vals[0], vals[1]), true
	case ir.OpSelect:
		if vals[0] != 0 {
			res = vals[1]
		} else {
			res = vals[2]
		}
		wrote = true
	case ir.OpFrameAddr:
		res, wrote = fr.base+uint64(in.Off), true
	case ir.OpLoad, ir.OpALoad:
		v, ok := m.memRead(c, vals[0])
		if !ok {
			return
		}
		res, wrote = v, true
		lat = c.loadLatency(vals[0], lat)
	case ir.OpStore, ir.OpAStore:
		if !m.memWrite(c, vals[0], vals[1]) {
			return
		}
	case ir.OpARMW:
		addr := vals[0]
		old, ok := m.memRead(c, addr)
		if !ok {
			return
		}
		switch in.RMW {
		case htmRMWAdd:
			if !m.memWrite(c, addr, old+vals[1]) {
				return
			}
		case htmRMWXchg:
			if !m.memWrite(c, addr, vals[1]) {
				return
			}
		case htmRMWCAS:
			if old == vals[1] {
				if !m.memWrite(c, addr, vals[2]) {
					return
				}
			}
		}
		res, wrote = old, true
	case ir.OpOut:
		m.execOut(c, fr, in, vals[0], opsReady)
		return
	default:
		m.crash(fmt.Sprintf("unimplemented op %v", in.Op))
		return
	}

	ready := c.sched.Issue(lat, opsReady)
	if wrote && in.Res != ir.NoValue {
		m.commitReg(c, fr, in, res, ready)
	}
	fr.instr++
	m.afterInstr(c)
}

// Aliases so the switch above reads naturally without importing the
// constants one by one.
const (
	htmRMWAdd  = ir.RMWAdd
	htmRMWXchg = ir.RMWXchg
	htmRMWCAS  = ir.RMWCAS
)

func u2f(v uint64) float64 { return math.Float64frombits(v) }
func f2u(f float64) uint64 { return math.Float64bits(f) }

func cmpEval(p ir.Pred, a, b uint64) uint64 {
	var t bool
	switch p {
	case ir.PredEQ:
		t = a == b
	case ir.PredNE:
		t = a != b
	case ir.PredLT:
		t = int64(a) < int64(b)
	case ir.PredLE:
		t = int64(a) <= int64(b)
	case ir.PredGT:
		t = int64(a) > int64(b)
	case ir.PredGE:
		t = int64(a) >= int64(b)
	case ir.PredULT:
		t = a < b
	case ir.PredUGE:
		t = a >= b
	case ir.PredFEQ:
		t = u2f(a) == u2f(b)
	case ir.PredFNE:
		t = u2f(a) != u2f(b)
	case ir.PredFLT:
		t = u2f(a) < u2f(b)
	case ir.PredFLE:
		t = u2f(a) <= u2f(b)
	case ir.PredFGT:
		t = u2f(a) > u2f(b)
	case ir.PredFGE:
		t = u2f(a) >= u2f(b)
	}
	if t {
		return 1
	}
	return 0
}

// execPhiGroup evaluates the run of phi instructions at the head of
// block b in parallel.
func (m *Machine) execPhiGroup(c *core, fr *frame, b *ir.Block) {
	start := fr.instr
	end := start
	for end < len(b.Instrs) && b.Instrs[end].Op == ir.OpPhi {
		end++
	}
	type upd struct {
		res        ir.ValueID
		val, ready uint64
	}
	var ups []upd
	for i := start; i < end; i++ {
		in := &b.Instrs[i]
		m.stats.DynInstrs++
		if m.prof != nil {
			m.prof.Note(fr.fn, in)
		}
		found := false
		for k, p := range in.PhiPreds {
			if p == fr.prevBlk {
				v, r := fr.operand(in.Args[k])
				ready := c.sched.Issue(cpu.Latency(ir.OpPhi), r)
				ups = append(ups, upd{in.Res, v, ready})
				found = true
				break
			}
		}
		if !found {
			m.crash(fmt.Sprintf("phi in %s/%s has no edge from block %d", fr.fn.Name, b.Name, fr.prevBlk))
			return
		}
	}
	m.stats.DynInstrs-- // the caller already counted the first phi
	// All operands were read above, so committing sequentially keeps
	// the parallel phi semantics; each phi counts as a register writer
	// for fault injection and tracing.
	for i, u := range ups {
		m.commitReg(c, fr, &b.Instrs[start+i], u.val, u.ready)
	}
	fr.instr = end
	m.afterInstr(c)
}

// execOut externalizes a value. Inside a transaction this is an
// unfriendly instruction and dooms it; the abort is observed right
// away so the value is not emitted twice across retries.
func (m *Machine) execOut(c *core, fr *frame, in *ir.Instr, val uint64, opsReady uint64) {
	if m.HTM.InTx(c.id) {
		m.HTM.Unfriendly(c.id)
		m.checkDoom(c)
		return // retried or falls back; re-executed then
	}
	c.sched.Issue(cpu.Latency(ir.OpOut), opsReady)
	if len(m.output) < m.outputLimit {
		m.output = append(m.output, val)
	}
	fr.instr++
	m.afterInstr(c)
}

// execTerminator handles br/jmp/ret/trap.
func (m *Machine) execTerminator(c *core, fr *frame, in *ir.Instr) {
	switch in.Op {
	case ir.OpBr:
		v, r := fr.operand(in.Args[0])
		c.sched.Issue(cpu.Latency(ir.OpBr), r)
		m.stats.CondBranches++
		taken := v != 0
		for _, p := range m.faults {
			if p.Injected || p.Model != FaultBranch || p.TargetIndex != m.stats.CondBranches-1 {
				continue
			}
			taken = !taken
			p.Injected = true
			p.Where = fmt.Sprintf("%s/%s br", fr.fn.Name, fr.fn.Blocks[fr.block].Name)
			m.emitFault(c, p)
		}
		target := in.Blocks[1]
		if taken {
			target = in.Blocks[0]
		}
		fr.prevBlk = fr.block
		fr.block = target
		fr.instr = 0
	case ir.OpJmp:
		c.sched.Issue(cpu.Latency(ir.OpJmp), 0)
		fr.prevBlk = fr.block
		fr.block = in.Blocks[0]
		fr.instr = 0
	case ir.OpRet:
		var val, ready uint64
		hasVal := len(in.Args) == 1
		if hasVal {
			val, ready = fr.operand(in.Args[0])
		}
		c.sched.Issue(cpu.Latency(ir.OpRet), ready)
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

// execCall dispatches direct calls: intrinsics are handled by the
// runtime, everything else pushes a frame.
func (m *Machine) execCall(c *core, in *ir.Instr) {
	if ir.IsIntrinsic(in.Callee) {
		m.execIntrinsic(c, in)
		return
	}
	fidx := m.Mod.FuncIndex(in.Callee)
	if fidx < 0 {
		m.crash("call to unknown function " + in.Callee)
		return
	}
	m.pushFrame(c, m.Mod.Funcs[fidx], in)
}

// execCallInd dispatches an indirect call through the module function
// table; arg0 is the function index. A corrupted index crashes, like
// a wild function pointer would.
func (m *Machine) execCallInd(c *core, in *ir.Instr) {
	fr := &c.frames[len(c.frames)-1]
	idxv, _ := fr.operand(in.Args[0])
	if idxv >= uint64(len(m.Mod.Funcs)) {
		m.crash(fmt.Sprintf("indirect call through invalid index %d", idxv))
		return
	}
	callee := m.Mod.Funcs[idxv]
	if callee.NParams != len(in.Args)-1 {
		m.crash(fmt.Sprintf("indirect call arity mismatch calling %s", callee.Name))
		return
	}
	shifted := *in
	shifted.Args = in.Args[1:]
	m.pushFrame(c, callee, &shifted)
}

// pushFrame enters callee, passing in.Args as parameters.
func (m *Machine) pushFrame(c *core, callee *ir.Func, in *ir.Instr) {
	fr := &c.frames[len(c.frames)-1]
	var opsReady uint64
	for _, a := range in.Args {
		if _, r := fr.operand(a); r > opsReady {
			opsReady = r
		}
	}
	ready := c.sched.Issue(cpu.Latency(ir.OpCall), opsReady)
	newBase := fr.base + uint64(fr.fn.FrameBytes)
	if r := newBase % 16; r != 0 {
		newBase += 16 - r
	}
	if newBase+uint64(callee.FrameBytes) > c.stackLimit || len(c.frames) > 512 {
		m.crash("stack overflow in " + callee.Name)
		return
	}
	nf := frame{
		fn:       callee,
		base:     newBase,
		retReg:   in.Res,
		retReady: in.Res != ir.NoValue,
	}
	nf.regs, nf.ready = c.file(callee.NValues)
	for i, a := range in.Args {
		nf.regs[i], _ = fr.operand(a)
		nf.ready[i] = ready
	}
	c.frames = append(c.frames, nf)
}

// commitReg latches one instruction result: it accounts the register
// write in the per-flow fault populations, applies armed register-file
// fault plans (bit flips and skipped latches), and reports the write
// to the tracer. Skip faults are applied before the write — the
// destination keeps its stale value — so the tracer sees what the
// register actually holds afterwards.
func (m *Machine) commitReg(c *core, fr *frame, in *ir.Instr, res, ready uint64) {
	m.stats.RegWrites++
	isShadow := in.HasFlag(ir.FlagShadow)
	isShadow2 := in.HasFlag(ir.FlagShadow2)
	if isShadow {
		m.stats.ShadowRegWrites++
	}
	if isShadow2 {
		m.stats.Shadow2RegWrites++
	}
	skipped := false
	var flip uint64
	for _, p := range m.faults {
		if p.Injected {
			continue
		}
		var idx uint64
		switch {
		case p.Model == FaultRegister || p.Model == FaultSkip:
			switch p.Flow {
			case FlowAny:
				idx = m.stats.RegWrites - 1
			case FlowShadow:
				if !isShadow || isShadow2 {
					continue
				}
				idx = m.stats.ShadowRegWrites - m.stats.Shadow2RegWrites - 1
			case FlowShadow2:
				if !isShadow2 {
					continue
				}
				idx = m.stats.Shadow2RegWrites - 1
			case FlowMaster:
				if isShadow {
					continue
				}
				idx = m.stats.RegWrites - m.stats.ShadowRegWrites - 1
			}
		default:
			continue
		}
		if idx != p.TargetIndex {
			continue
		}
		if p.Model == FaultSkip {
			skipped = true
		} else {
			flip ^= p.Mask
		}
		p.Injected = true
		p.Where = fmt.Sprintf("%s/%s %s", fr.fn.Name, fr.fn.Blocks[fr.block].Name, in.Op)
		m.emitFault(c, p)
	}
	if !skipped {
		fr.setReg(in.Res, res^flip, ready)
	}
	if m.tracer != nil {
		m.tracer(TraceEvent{
			Index: m.stats.RegWrites - 1,
			Core:  c.id,
			Func:  fr.fn.Name,
			Block: fr.fn.Blocks[fr.block].Name,
			Line:  in.Line,
			Op:    in.Op,
			Res:   in.Res,
			Value: fr.regs[in.Res],
			Cycle: c.sched.Now(),
		})
	}
}

// afterInstr performs per-instruction housekeeping: HTM duration
// observation and doomed-transaction handling.
func (m *Machine) afterInstr(c *core) {
	if m.HTM.InTx(c.id) {
		m.HTM.Tick(c.id, c.sched.Now())
		m.checkDoom(c)
	}
}

// checkDoom aborts and rolls back the core's transaction if it has
// been doomed, then either retries or falls back per the HAFT policy.
// Simulated time does not rewind on rollback: the wasted cycles stay
// on the clock, which is exactly the cost aborts have on real
// hardware.
func (m *Machine) checkDoom(c *core) {
	if !m.HTM.InTx(c.id) || m.HTM.Doomed(c.id) == htm.CauseNone {
		return
	}
	m.HTM.Abort(c.id, c.sched.Now(), htm.CauseNone) // cause comes from the doom marker
	m.recoverAfterAbort(c)
}

// restoreSnapshot deep-restores the frame stack from the snapshot.
func (c *core) restoreSnapshot() {
	c.frames = c.copyFrames(c.frames, c.snapshot.frames)
}

// takeSnapshot captures the frame stack in the core's txbuf with the
// current frame's position advanced past the instruction being
// executed, so a retry resumes right after the tx.begin /
// tx.cond_split call.
func (c *core) takeSnapshot() {
	s := &c.txbuf
	s.frames = c.copyFrames(s.frames, c.frames)
	s.frames[len(s.frames)-1].instr++
	c.snapshot = s
}

// Register files. A frame's regs and ready are the two halves of one
// allocation, and every file of a core's frame stack and of its txbuf
// comes from, and returns to, the core's free list: a warm machine
// calls, returns, begins and aborts transactions without allocating.

// grab returns a file for n values with arbitrary content: the most
// recently released one that is large enough, else a new one.
func (c *core) grab(n int) []uint64 {
	for i := len(c.free) - 1; i >= 0; i-- {
		if f := c.free[i]; cap(f) >= 2*n {
			last := len(c.free) - 1
			c.free[i] = c.free[last]
			c.free = c.free[:last]
			return f[:2*n]
		}
	}
	return make([]uint64, 2*n)
}

// file returns the zeroed register and readiness files of a new frame.
func (c *core) file(n int) (regs, ready []uint64) {
	buf := c.grab(n)
	clear(buf)
	return buf[:n], buf[n:]
}

// release takes back the files of frames that are going away.
func (c *core) release(frames []frame) {
	for i := range frames {
		c.free = append(c.free, frames[i].regs[:cap(frames[i].regs)])
	}
}

// copyFrames makes dst, one of the core's own frame stacks, a deep copy
// of src.
func (c *core) copyFrames(dst, src []frame) []frame {
	c.release(dst)
	dst = dst[:0]
	for i := range src {
		dst = append(dst, src[i].withFile(c.grab(len(src[i].regs))))
	}
	return dst
}

// withFile returns a copy of the frame that keeps its registers in buf.
func (fr frame) withFile(buf []uint64) frame {
	n := len(fr.regs)
	copy(buf, fr.regs)
	copy(buf[n:], fr.ready)
	fr.regs, fr.ready = buf[:n], buf[n:]
	return fr
}
