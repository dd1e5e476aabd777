package vm

import (
	"fmt"
	"math"

	"repro/internal/htm"
	"repro/internal/ir"
)

// setReg writes a result register and its readiness cycle.
func (fr *frame) setReg(v ir.ValueID, val, ready uint64) {
	fr.regs[v] = val
	fr.ready[v] = ready
}

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
