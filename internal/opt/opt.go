// Package opt implements the standard scalar optimizations that run
// before HAFT's passes, mirroring the paper's build flow (§4.1): "all
// regular LLVM compiler optimizations are performed on the bitcode
// representation; we then take the optimized bitcode and pass it
// through the two implemented compiler passes".
//
// The passes are deliberately conservative — they must preserve the
// exact output of every program, including crash behavior:
//
//   - constant folding and algebraic simplification;
//   - dead code elimination (pure instructions whose results are
//     unused);
//   - jump threading for trivial blocks (a block containing only an
//     unconditional jump) and removal of unreachable blocks;
//   - branch simplification when the condition is a constant.
//
// Memory operations, calls, atomics and externalization are never
// touched: they are exactly the instructions HAFT anchors its checks
// and transaction boundaries to. Volatile loads (ILR shadow loads)
// are preserved, so the optimizer is also safe to run *after*
// hardening — which the tests exploit to check that it cannot
// accidentally delete the shadow data flow.
package opt

import (
	"fmt"
	"math"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded      int
	DeadRemoved int
	BlocksGone  int
	BranchesCut int
	// Threaded counts trivial jump-only blocks bypassed by jump
	// threading.
	Threaded int
	// Merged counts single-predecessor blocks spliced into their
	// predecessor.
	Merged int
}

// VerifyEachPass, when set (test builds and the differential fuzzer),
// re-verifies every function and recomputes its CFG and dominator tree
// after each individual optimization pass, panicking on the first
// structural inconsistency. The production pipeline verifies only the
// final module.
var VerifyEachPass = false

// Apply optimizes every function of m in place and returns statistics.
func Apply(m *ir.Module) Stats {
	var st Stats
	for _, f := range m.Funcs {
		st.add(optimizeFunc(m, f))
	}
	return st
}

// Add accumulates another run's counters into s.
func (s *Stats) Add(o Stats) { s.add(o) }

func (s *Stats) add(o Stats) {
	s.Folded += o.Folded
	s.DeadRemoved += o.DeadRemoved
	s.BlocksGone += o.BlocksGone
	s.BranchesCut += o.BranchesCut
	s.Threaded += o.Threaded
	s.Merged += o.Merged
}

// Total returns the total number of rewrites.
func (s Stats) Total() int {
	return s.Folded + s.DeadRemoved + s.BlocksGone + s.BranchesCut + s.Threaded + s.Merged
}

func optimizeFunc(m *ir.Module, f *ir.Func) Stats {
	var st Stats
	check := func(pass string) {
		if !VerifyEachPass {
			return
		}
		if err := ir.VerifyFunc(m, f); err != nil {
			panic(fmt.Sprintf("opt: %s left %s invalid: %v", pass, f.Name, err))
		}
		// Dominator info is recomputed from scratch after every
		// CFG-mutating pass; building the graph exercises the RPO and
		// IDom computations over the rewritten block indices.
		g := cfg.New(f)
		for b := range f.Blocks {
			if b != 0 && g.Reachable(b) && g.IDom[b] < 0 {
				panic(fmt.Sprintf("opt: %s left %s with a reachable but undominated block %s",
					pass, f.Name, f.Blocks[b].Name))
			}
		}
	}
	for pass := 0; pass < 8; pass++ {
		n := foldConstants(f)
		check("foldConstants")
		n += simplifyBranches(f, &st)
		check("simplifyBranches")
		n += threadJumps(f, &st)
		check("threadJumps")
		n += mergeBlocks(f, &st)
		check("mergeBlocks")
		n += removeDeadCode(f, &st)
		check("removeDeadCode")
		n += removeUnreachable(f, &st)
		check("removeUnreachable")
		st.Folded += n
		if n == 0 {
			break
		}
	}
	return st
}

// foldConstants evaluates instructions whose operands are all constant
// and propagates the results into later operands. Division and
// remainder by a constant zero are NOT folded: they must keep their
// runtime trap behavior.
func foldConstants(f *ir.Func) int {
	known := map[ir.ValueID]uint64{} // values already folded to constants
	changed := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Propagate already-known constants into operands.
			for k, a := range in.Args {
				if !a.IsConst {
					if v, ok := known[a.Reg]; ok {
						in.Args[k] = ir.ConstUint(v)
						changed++
					}
				}
			}
			if in.Res == ir.NoValue || in.Op == ir.OpPhi || in.Op.IsMemory() ||
				in.Op == ir.OpCall || in.Op == ir.OpCallInd || in.Op == ir.OpFrameAddr {
				continue
			}
			v, ok := tryFold(in)
			if ok {
				known[in.Res] = v
			}
		}
	}
	return changed
}

// tryFold evaluates a pure instruction over constant operands.
func tryFold(in *ir.Instr) (uint64, bool) {
	vals := make([]uint64, len(in.Args))
	for i, a := range in.Args {
		if !a.IsConst {
			return 0, false
		}
		vals[i] = a.Const
	}
	u2f := math.Float64frombits
	f2u := math.Float64bits
	switch in.Op {
	case ir.OpMov:
		return vals[0], true
	case ir.OpAdd:
		return vals[0] + vals[1], true
	case ir.OpSub:
		return vals[0] - vals[1], true
	case ir.OpMul:
		return vals[0] * vals[1], true
	case ir.OpDiv, ir.OpRem:
		if vals[1] == 0 {
			return 0, false // keep the trap
		}
		if in.Op == ir.OpDiv {
			return uint64(int64(vals[0]) / int64(vals[1])), true
		}
		return uint64(int64(vals[0]) % int64(vals[1])), true
	case ir.OpAnd:
		return vals[0] & vals[1], true
	case ir.OpOr:
		return vals[0] | vals[1], true
	case ir.OpXor:
		return vals[0] ^ vals[1], true
	case ir.OpShl:
		return vals[0] << (vals[1] & 63), true
	case ir.OpShr:
		return vals[0] >> (vals[1] & 63), true
	case ir.OpSar:
		return uint64(int64(vals[0]) >> (vals[1] & 63)), true
	case ir.OpNot:
		return ^vals[0], true
	case ir.OpFAdd:
		return f2u(u2f(vals[0]) + u2f(vals[1])), true
	case ir.OpFSub:
		return f2u(u2f(vals[0]) - u2f(vals[1])), true
	case ir.OpFMul:
		return f2u(u2f(vals[0]) * u2f(vals[1])), true
	case ir.OpFDiv:
		return f2u(u2f(vals[0]) / u2f(vals[1])), true
	case ir.OpFAbs:
		return f2u(math.Abs(u2f(vals[0]))), true
	case ir.OpSIToFP:
		return f2u(float64(int64(vals[0]))), true
	case ir.OpFPToSI:
		return uint64(int64(u2f(vals[0]))), true
	case ir.OpSelect:
		if vals[0] != 0 {
			return vals[1], true
		}
		return vals[2], true
	case ir.OpCmp:
		return foldCmp(in.Pred, vals[0], vals[1]), true
	}
	return 0, false
}

func foldCmp(p ir.Pred, a, b uint64) uint64 {
	u2f := math.Float64frombits
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

// hasSideEffect reports whether an instruction must be preserved even
// if its result is unused.
func hasSideEffect(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpAStore, ir.OpARMW, ir.OpALoad,
		ir.OpCall, ir.OpCallInd, ir.OpOut,
		ir.OpBr, ir.OpJmp, ir.OpRet, ir.OpTrap:
		return true
	case ir.OpDiv, ir.OpRem:
		// May trap on a zero divisor.
		if in.Args[1].IsConst && in.Args[1].Const != 0 {
			return false
		}
		return true
	case ir.OpLoad:
		// Loads can fault on bad addresses and volatile loads anchor
		// the ILR shadow flow; keep them all — address legality is not
		// tracked here.
		return true
	}
	return false
}

// removeDeadCode deletes pure instructions whose results are never
// used.
func removeDeadCode(f *ir.Func, st *Stats) int {
	used := make([]bool, f.NValues)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			for _, a := range b.Instrs[i].Args {
				if !a.IsConst {
					used[a.Reg] = true
				}
			}
		}
	}
	removed := 0
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Res != ir.NoValue && !used[in.Res] && !hasSideEffect(&in) {
				removed++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	st.DeadRemoved += removed
	return removed
}

// simplifyBranches rewrites constant-condition branches into jumps and
// fixes phi predecessor lists accordingly.
func simplifyBranches(f *ir.Func, st *Stats) int {
	changed := 0
	for bi, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr || !t.Args[0].IsConst {
			continue
		}
		taken, dropped := t.Blocks[0], t.Blocks[1]
		if t.Args[0].Const == 0 {
			taken, dropped = dropped, taken
		}
		if taken == dropped {
			dropped = -1
		}
		b.Instrs[len(b.Instrs)-1] = ir.Instr{Op: ir.OpJmp, Res: ir.NoValue, Blocks: []int{taken}}
		if dropped >= 0 {
			removePhiEdges(f, dropped, bi)
		}
		st.BranchesCut++
		changed++
	}
	return changed
}

// removePhiEdges drops the (pred -> blk) edge from blk's phis unless
// another terminator still produces it.
func removePhiEdges(f *ir.Func, blk, pred int) {
	// If pred still branches to blk through another edge, keep phis.
	if t := f.Blocks[pred].Terminator(); t != nil {
		for _, s := range t.Blocks {
			if s == blk {
				return
			}
		}
	}
	for i := range f.Blocks[blk].Instrs {
		in := &f.Blocks[blk].Instrs[i]
		if in.Op != ir.OpPhi {
			break
		}
		for k := 0; k < len(in.PhiPreds); {
			if in.PhiPreds[k] == pred {
				in.PhiPreds = append(in.PhiPreds[:k], in.PhiPreds[k+1:]...)
				in.Args = append(in.Args[:k], in.Args[k+1:]...)
				continue
			}
			k++
		}
	}
}

// threadJumps bypasses trivial blocks that contain only an
// unconditional jump: every predecessor is redirected straight to the
// jump's target, and the trivial block becomes unreachable. To keep
// phi rewriting trivially sound, a block is threaded only when its
// target carries no phis (the continuation blocks the hardening and
// reduction passes split off never do).
func threadJumps(f *ir.Func, st *Stats) int {
	changed := 0
	for j, b := range f.Blocks {
		if j == 0 || len(b.Instrs) != 1 {
			continue
		}
		jmp := &b.Instrs[0]
		if jmp.Op != ir.OpJmp || jmp.Blocks[0] == j {
			continue
		}
		tgt := jmp.Blocks[0]
		if blockHasPhis(f.Blocks[tgt]) {
			continue
		}
		redirected := false
		for pi, p := range f.Blocks {
			if pi == j {
				continue
			}
			t := p.Terminator()
			if t == nil {
				continue
			}
			for k, s := range t.Blocks {
				if s == j {
					t.Blocks[k] = tgt
					redirected = true
				}
			}
		}
		if redirected {
			changed++
			st.Threaded++
		}
	}
	return changed
}

// mergeBlocks splices a block into its predecessor when it is the
// unique successor of a unique predecessor ending in an unconditional
// jump. Phis in the merged block necessarily have one incoming value
// and degrade to movs; phis in its successors are repointed at the
// predecessor.
func mergeBlocks(f *ir.Func, st *Stats) int {
	changed := 0
	for {
		predCount, predOf := blockPreds(f)
		merged := false
		for a, ba := range f.Blocks {
			t := ba.Terminator()
			if t == nil || t.Op != ir.OpJmp {
				continue
			}
			b := t.Blocks[0]
			if b == a || b == 0 || predCount[b] != 1 || predOf[b] != a {
				continue
			}
			bb := f.Blocks[b]
			// Single-predecessor phis become movs of their only input.
			body := make([]ir.Instr, 0, len(bb.Instrs))
			for i := range bb.Instrs {
				in := bb.Instrs[i]
				if in.Op == ir.OpPhi {
					in = ir.Instr{Op: ir.OpMov, Res: in.Res,
						Args: []ir.Operand{in.Args[0]}, Flags: in.Flags}
				}
				body = append(body, in)
			}
			ba.Instrs = append(ba.Instrs[:len(ba.Instrs)-1], body...)
			// Successor phis now flow in from a instead of b.
			if nt := ba.Terminator(); nt != nil {
				for _, s := range nt.Blocks {
					for i := range f.Blocks[s].Instrs {
						in := &f.Blocks[s].Instrs[i]
						if in.Op != ir.OpPhi {
							break
						}
						for k, p := range in.PhiPreds {
							if p == b {
								in.PhiPreds[k] = a
							}
						}
					}
				}
			}
			// Gut the absorbed block so its stale edges disappear from
			// the CFG; removeUnreachable deletes it.
			bb.Instrs = []ir.Instr{{Op: ir.OpTrap, Res: ir.NoValue}}
			changed++
			st.Merged++
			merged = true
			break
		}
		if !merged {
			return changed
		}
	}
}

func blockHasPhis(b *ir.Block) bool {
	return len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpPhi
}

// blockPreds counts terminator-edge predecessors per block (each
// predecessor counted once even if it targets the block through both
// branch slots) and records one representative predecessor.
func blockPreds(f *ir.Func) (count []int, one []int) {
	count = make([]int, len(f.Blocks))
	one = make([]int, len(f.Blocks))
	for i := range one {
		one[i] = -1
	}
	for bi, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		seen := map[int]bool{}
		for _, s := range t.Blocks {
			if !seen[s] {
				seen[s] = true
				count[s]++
				one[s] = bi
			}
		}
	}
	return count, one
}

// removeUnreachable drops blocks with no path from the entry,
// rewriting block indices in terminators and phi predecessor lists.
func removeUnreachable(f *ir.Func, st *Stats) int {
	n := len(f.Blocks)
	reach := make([]bool, n)
	work := []int{0}
	reach[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if t := f.Blocks[b].Terminator(); t != nil {
			for _, s := range t.Blocks {
				if !reach[s] {
					reach[s] = true
					work = append(work, s)
				}
			}
		}
	}
	gone := 0
	for i := 0; i < n; i++ {
		if !reach[i] {
			gone++
		}
	}
	if gone == 0 {
		return 0
	}
	// Build the index remap and compact.
	remap := make([]int, n)
	var kept []*ir.Block
	for i := 0; i < n; i++ {
		if reach[i] {
			remap[i] = len(kept)
			kept = append(kept, f.Blocks[i])
		} else {
			remap[i] = -1
		}
	}
	for _, b := range kept {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for k, s := range in.Blocks {
				in.Blocks[k] = remap[s]
			}
			if in.Op == ir.OpPhi {
				for k := 0; k < len(in.PhiPreds); {
					if remap[in.PhiPreds[k]] < 0 {
						in.PhiPreds = append(in.PhiPreds[:k], in.PhiPreds[k+1:]...)
						in.Args = append(in.Args[:k], in.Args[k+1:]...)
						continue
					}
					in.PhiPreds[k] = remap[in.PhiPreds[k]]
					k++
				}
			}
		}
	}
	f.Blocks = kept
	st.BlocksGone += gone
	return gone
}
