// Package cpu models the timing of a superscalar out-of-order core at
// the granularity the HAFT evaluation needs: a W-wide in-order issue
// scoreboard with per-operation latencies.
//
// The key property the model must reproduce is the one HAFT's
// performance results hinge on (§5.2): the shadow data flow inserted
// by ILR is independent of the master flow, so on code with low
// instruction-level parallelism the extra instructions hide in unused
// issue slots (matrixmul, native ILP 0.2 → ~5% overhead), while on
// ILP-saturated code they roughly double the critical resource
// (vips, native ILP 2.6 → ~4× with TX effects). A scoreboard that
// issues up to Width independent instructions per cycle and stalls on
// operand readiness captures exactly that effect.
package cpu

import "repro/internal/ir"

// FreqGHz is the simulated clock frequency, matching the paper's
// 2.0 GHz Haswell testbed. Used to convert cycles to wall time.
const FreqGHz = 2.0

// CyclesToSeconds converts a cycle count to simulated seconds.
func CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / (FreqGHz * 1e9)
}

// Latency returns the result latency, in cycles, of an IR operation.
// Values approximate Haswell figures for the corresponding x86
// instructions.
func Latency(op ir.Op) uint64 {
	switch op {
	case ir.OpMov, ir.OpNot, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpAdd, ir.OpSub, ir.OpShl, ir.OpShr, ir.OpSar,
		ir.OpCmp, ir.OpSelect, ir.OpFrameAddr, ir.OpPhi:
		return 1
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 22
	case ir.OpFAdd, ir.OpFSub:
		return 3
	case ir.OpFMul:
		return 5
	case ir.OpFDiv:
		return 14
	case ir.OpFSqrt:
		return 18
	case ir.OpFExp, ir.OpFLog:
		return 40
	case ir.OpSIToFP, ir.OpFPToSI:
		return 4
	case ir.OpLoad:
		return 4 // L1 hit
	case ir.OpStore:
		return 1 // retire via store buffer
	case ir.OpALoad:
		return 8
	case ir.OpAStore:
		return 12
	case ir.OpARMW:
		return 20 // locked RMW
	case ir.OpBr, ir.OpJmp:
		return 1
	case ir.OpRet, ir.OpCall, ir.OpCallInd:
		return 2
	case ir.OpOut:
		return 60 // externalization through a system call
	case ir.OpTrap:
		return 1
	}
	return 1
}

// IntrinsicLatency returns the cycle cost of a runtime intrinsic call.
// tx.begin / tx.end model the XBEGIN/XEND round trip (~40 cycles on
// Haswell); the counter helpers are a couple of ALU operations, which
// is precisely why the conditional-split scheme of §3.2 is profitable.
func IntrinsicLatency(name string) uint64 {
	switch name {
	case "tx.begin":
		return 25
	case "tx.end":
		return 20
	case "tx.cond_split":
		return 3 // load counter, compare, predicted-not-taken branch
	case "tx.counter_inc":
		return 2
	case "tx.check":
		return 2 // pairwise compare + flag set, no branch
	case "tmr.vote":
		return 3 // two compares + cmov-style majority select per triple

	case "ilr.fail", "haft.crash":
		return 1
	case "lock.acquire", "lock.release":
		return 40 // uncontended futex-free path
	case "lock.acquire_elide", "lock.release_elide":
		return 6 // XTEST + predicted branch
	case "malloc", "free":
		return 80
	case "thread.id", "thread.count":
		return 2
	case "barrier.wait":
		return 60
	case "sys.read", "sys.write":
		return 300
	}
	return 10
}

// Sched is the per-core issue scoreboard. The zero value is a
// 1-wide core at cycle 0; use NewSched for a realistic width.
type Sched struct {
	Width int
	cycle uint64 // current issue cycle
	slots int    // instructions already issued in the current cycle
	idle  uint64 // cycles spent blocked (lock/barrier waits)
}

// NewSched returns a scoreboard with the given issue width.
func NewSched(width int) *Sched {
	if width < 1 {
		width = 1
	}
	return &Sched{Width: width}
}

// Reset returns the scoreboard to cycle 0, keeping its width.
func (s *Sched) Reset() { *s = Sched{Width: s.Width} }

// Now returns the current cycle of the core.
func (s *Sched) Now() uint64 { return s.cycle }

// AdvanceTo moves the core's clock forward to at least cycle (used
// when a core resumes after blocking on a lock or barrier). The
// skipped span is accounted as idle, not busy.
func (s *Sched) AdvanceTo(cycle uint64) {
	if cycle > s.cycle {
		s.idle += cycle - s.cycle
		s.cycle = cycle
		s.slots = 0
	}
}

// Idle returns the cycles this core spent blocked.
func (s *Sched) Idle() uint64 { return s.idle }

// Busy returns the cycles this core spent executing (Now - Idle).
func (s *Sched) Busy() uint64 { return s.cycle - s.idle }

// Issue schedules one instruction whose operands become available at
// operandsReady (the max over its inputs; pass 0 for constants) and
// whose latency is lat cycles. It returns the cycle at which the
// result is available. Issue respects in-order, Width-wide issue:
// at most Width instructions enter the pipeline per cycle, and an
// instruction cannot issue before its operands are ready.
func (s *Sched) Issue(lat uint64, operandsReady uint64) (ready uint64) {
	issueAt := s.cycle
	if operandsReady > issueAt {
		issueAt = operandsReady
	}
	if issueAt > s.cycle {
		s.cycle = issueAt
		s.slots = 0
	}
	s.slots++
	if s.slots >= s.Width {
		s.cycle++
		s.slots = 0
	}
	return issueAt + lat
}

// Stall advances the clock by lat cycles unconditionally (pipeline
// drains around serializing operations such as XBEGIN and locked
// instructions).
func (s *Sched) Stall(lat uint64) {
	s.cycle += lat
	s.slots = 0
}

// DefaultWidth is the issue width used throughout the evaluation
// (Haswell sustains ~4 µops/cycle).
const DefaultWidth = 4
