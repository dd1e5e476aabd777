// Check-reduction passes (§3.3 of the paper, "the passes eliminate
// redundant checks"): the overhead-reduction suite that runs after the
// hardening pipeline has inserted its naive per-externalization
// checks.
//
// Three independent passes operate on hardened code:
//
//   - shadow-flow copy propagation: registers defined by plain movs
//     (and their shadow clones) are forwarded to their sources, so a
//     value and its copy share one replica computation; the
//     master-to-shadow replica movs (ir.FlagReplica) are never
//     propagated through — that would collapse a check into comparing
//     a master register with itself;
//   - redundant-check elimination: a forward "available master/shadow
//     pairs" dataflow over the CFG; a check is dropped when the same
//     pair is already checked on every path since the last definition
//     of either register (the SWIFT-lineage optimization);
//   - check coalescing: adjacent eager checks are merged into one
//     combined compare tree feeding a single detection branch, and
//     adjacent relaxed tx.check calls are merged into one variadic
//     call.
//
// Every pass preserves the detection guarantee for the fault models of
// the campaign engine: faults are injected at definition points, a
// definition kills availability, and the first check after any
// definition always survives.
package ilr

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// ReduceOptions toggles the individual reduction passes.
type ReduceOptions struct {
	// CopyProp enables shadow-flow copy propagation.
	CopyProp bool
	// RedundantChecks enables dominance/availability-based redundant
	// check elimination.
	RedundantChecks bool
	// Coalesce merges adjacent checks into combined compares (eager
	// checks) or variadic tx.check calls (relaxed checks).
	Coalesce bool
}

// ReduceStats reports what the reduction passes did.
type ReduceStats struct {
	// CopiesPropagated counts operand uses rewritten to the copy
	// source.
	CopiesPropagated int
	// ChecksRemoved counts eager cmp+branch checks proven redundant.
	ChecksRemoved int
	// PairsRemoved counts master/shadow pairs dropped from relaxed
	// tx.check calls (whole calls removed when their last pair goes).
	PairsRemoved int
	// ChecksCoalesced counts eager checks merged into a combined
	// compare of a preceding check.
	ChecksCoalesced int
	// CallsCoalesced counts tx.check calls merged into a preceding
	// variadic tx.check.
	CallsCoalesced int
	// ChecksSunk counts tx.check calls moved down their block to
	// cluster with other deferred checks for coalescing.
	ChecksSunk int
}

func (s *ReduceStats) add(o ReduceStats) {
	s.CopiesPropagated += o.CopiesPropagated
	s.ChecksRemoved += o.ChecksRemoved
	s.PairsRemoved += o.PairsRemoved
	s.ChecksCoalesced += o.ChecksCoalesced
	s.CallsCoalesced += o.CallsCoalesced
	s.ChecksSunk += o.ChecksSunk
}

// Total returns the total number of rewrites.
func (s ReduceStats) Total() int {
	return s.CopiesPropagated + s.ChecksRemoved + s.PairsRemoved +
		s.ChecksCoalesced + s.CallsCoalesced + s.ChecksSunk
}

// Reduce runs the enabled reduction passes over every protected
// function of a hardened module and returns statistics. It is safe on
// unhardened modules (it finds nothing to do).
func Reduce(m *ir.Module, o ReduceOptions) ReduceStats {
	var st ReduceStats
	for _, f := range m.Funcs {
		if f.Attrs.Unprotected {
			continue
		}
		if o.CopyProp {
			st.add(copyProp(f))
		}
		if o.RedundantChecks {
			st.add(elimRedundantChecks(f))
		}
		if o.Coalesce {
			st.add(coalesceChecks(f))
		}
	}
	return st
}

// defSite locates the unique definition of each register.
type defSite struct {
	block int
	index int
}

func defSites(f *ir.Func) map[ir.ValueID]defSite {
	defs := make(map[ir.ValueID]defSite, f.NValues)
	for p := 0; p < f.NParams; p++ {
		// Parameters are defined "before" the entry block.
		defs[ir.ValueID(p)] = defSite{block: 0, index: -1}
	}
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			if r := b.Instrs[i].Res; r != ir.NoValue {
				if _, dup := defs[r]; !dup {
					defs[r] = defSite{block: bi, index: i}
				}
			}
		}
	}
	return defs
}

// copyProp forwards uses of plain copies (b = mov a) to their source,
// for masters and shadow clones alike, so both flows share one
// computation per copied value. Replica movs (ir.FlagReplica) seed the
// shadow flow from the master and are never looked through.
func copyProp(f *ir.Func) ReduceStats {
	var st ReduceStats
	// source[r] = the operand r copies, for every propagatable mov.
	source := map[ir.ValueID]ir.ValueID{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpMov || in.HasFlag(ir.FlagReplica) || in.Res == ir.NoValue {
				continue
			}
			if in.Args[0].IsConst {
				continue // constant movs belong to constant folding
			}
			source[in.Res] = in.Args[0].Reg
		}
	}
	if len(source) == 0 {
		return st
	}
	// Resolve chains (c = mov b; b = mov a => c -> a). SSA single
	// definitions make cycles impossible.
	root := func(r ir.ValueID) ir.ValueID {
		for {
			s, ok := source[r]
			if !ok {
				return r
			}
			r = s
		}
	}
	defs := defSites(f)
	g := cfg.New(f)
	// definedAt reports whether register r's definition is guaranteed
	// executed before the given use point (block ub, instruction ui;
	// ui == len(instrs) means "at the end of the block").
	definedAt := func(r ir.ValueID, ub, ui int) bool {
		d, ok := defs[r]
		if !ok {
			return false
		}
		if d.block == ub {
			return d.index < ui
		}
		return g.Dominates(d.block, ub)
	}
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for k, a := range in.Args {
				if a.IsConst {
					continue
				}
				s := root(a.Reg)
				if s == a.Reg {
					continue
				}
				if in.Op == ir.OpPhi {
					// The use happens at the end of the predecessor.
					p := in.PhiPreds[k]
					if !definedAt(s, p, len(f.Blocks[p].Instrs)) {
						continue
					}
				} else if !definedAt(s, bi, i) {
					continue
				}
				in.Args[k] = ir.Reg(s)
				st.CopiesPropagated++
			}
		}
	}
	return st
}

// Availability strength of a checked master/shadow pair.
const (
	availNone uint8 = iota
	// availRelaxed: the pair was compared by a tx.check, whose
	// reaction is deferred to transaction commit.
	availRelaxed
	// availEager: the pair was compared by an eager cmp+branch check
	// that fail-stops (or aborts) immediately.
	availEager
)

type pairKey [2]ir.ValueID

// checkPattern recognizes the eager check tail of a block: a cmp
// comparing a master/shadow register pair whose result feeds the
// block's detection branch. Returns the cmp index (len-2) or -1.
func checkPattern(b *ir.Block) int {
	n := len(b.Instrs)
	if n < 2 {
		return -1
	}
	br := &b.Instrs[n-1]
	if br.Op != ir.OpBr || !br.HasFlag(ir.FlagDetect) || br.Args[0].IsConst {
		return -1
	}
	cmp := &b.Instrs[n-2]
	if cmp.Op != ir.OpCmp || !cmp.HasFlag(ir.FlagCheck) || cmp.Pred != ir.PredNE {
		return -1
	}
	if cmp.Res != br.Args[0].Reg {
		return -1
	}
	if cmp.Args[0].IsConst || cmp.Args[1].IsConst {
		return -1
	}
	return n - 2
}

func isTxCheck(in *ir.Instr) bool {
	return in.Op == ir.OpCall && in.Callee == "tx.check"
}

// elimRedundantChecks removes checks whose master/shadow pair is
// already checked on every path since the last definition of either
// register. The analysis is a forward must-available dataflow: a
// definition of a register kills every pair containing it (the
// registers hold new values), a check generates its pair.
//
// An eager check is removed only when an eager check of the pair is
// available (a merely relaxed tx.check defers its reaction, which is
// too weak to replace an externalization guard); a relaxed pair is
// removed under any available check.
func elimRedundantChecks(f *ir.Func) ReduceStats {
	var st ReduceStats
	n := len(f.Blocks)
	g := cfg.New(f)

	// transfer applies block b's effect to the set and, when rm is
	// true, performs the removals; returns the out-set.
	transfer := func(bi int, in map[pairKey]uint8, rm bool) map[pairKey]uint8 {
		avail := make(map[pairKey]uint8, len(in))
		for k, v := range in {
			avail[k] = v
		}
		kill := func(r ir.ValueID) {
			for k := range avail {
				if k[0] == r || k[1] == r {
					delete(avail, k)
				}
			}
		}
		b := f.Blocks[bi]
		ci := checkPattern(b)
		for i := 0; i < len(b.Instrs); i++ {
			ins := &b.Instrs[i]
			if isTxCheck(ins) {
				if rm {
					args := ins.Args[:0]
					for p := 0; p+1 < len(ins.Args); p += 2 {
						k := pairKey{ins.Args[p].Reg, ins.Args[p+1].Reg}
						if ins.Args[p].IsConst || ins.Args[p+1].IsConst || avail[k] == availNone {
							args = append(args, ins.Args[p], ins.Args[p+1])
							continue
						}
						st.PairsRemoved++
					}
					ins.Args = args
					if len(ins.Args) == 0 {
						// The whole call became redundant.
						b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
						if ci >= 0 {
							ci--
						}
						i--
						continue
					}
				}
				for p := 0; p+1 < len(ins.Args); p += 2 {
					if ins.Args[p].IsConst || ins.Args[p+1].IsConst {
						continue
					}
					k := pairKey{ins.Args[p].Reg, ins.Args[p+1].Reg}
					if avail[k] < availRelaxed {
						avail[k] = availRelaxed
					}
				}
				continue
			}
			if i == ci {
				cmp := ins
				k := pairKey{cmp.Args[0].Reg, cmp.Args[1].Reg}
				if rm && avail[k] == availEager {
					// Drop the cmp and rewrite the detect branch into a
					// jump to the continuation block.
					cont := b.Instrs[i+1].Blocks[1]
					b.Instrs = append(b.Instrs[:i],
						ir.Instr{Op: ir.OpJmp, Res: ir.NoValue, Blocks: []int{cont}})
					st.ChecksRemoved++
					break
				}
				avail[k] = availEager
				// The cmp result definition kills nothing (fresh reg).
				continue
			}
			if ins.Res != ir.NoValue {
				kill(ins.Res)
			}
		}
		return avail
	}

	// Iterate to fixpoint. out == nil means "not yet computed" (top).
	out := make([]map[pairKey]uint8, n)
	meet := func(bi int) map[pairKey]uint8 {
		var in map[pairKey]uint8
		first := true
		for _, p := range g.Preds[bi] {
			if out[p] == nil {
				continue // top: ignore (optimistic)
			}
			if first {
				in = make(map[pairKey]uint8, len(out[p]))
				for k, v := range out[p] {
					in[k] = v
				}
				first = false
				continue
			}
			for k, v := range in {
				pv, ok := out[p][k]
				if !ok {
					delete(in, k)
				} else if pv < v {
					in[k] = pv
				}
			}
		}
		if in == nil {
			in = map[pairKey]uint8{}
		}
		return in
	}
	// With the optimistic (top) initialization the sets only ever
	// shrink, so iterating to an unchanged round is a true fixpoint.
	for {
		changed := false
		for _, bi := range g.RPO {
			var in map[pairKey]uint8
			if bi == 0 {
				in = map[pairKey]uint8{}
			} else {
				in = meet(bi)
			}
			o := transfer(bi, in, false)
			if !pairsEqual(o, out[bi]) {
				out[bi] = o
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Removal pass using the converged in-sets.
	for _, bi := range g.RPO {
		var in map[pairKey]uint8
		if bi == 0 {
			in = map[pairKey]uint8{}
		} else {
			in = meet(bi)
		}
		transfer(bi, in, true)
	}
	return st
}

func pairsEqual(a, b map[pairKey]uint8) bool {
	if b == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// coalesceChecks merges adjacent checks:
//
//   - runs of tx.check calls with nothing between them become one
//     variadic tx.check (the relaxed form is branch-free, so adjacency
//     after block merging is common);
//   - an eager check whose continuation block consists of exactly
//     another eager check (the shape the ILR pass emits for
//     back-to-back operand checks) is pulled up and or-combined into
//     the predecessor's compare, sharing one detection branch.
func coalesceChecks(f *ir.Func) ReduceStats {
	var st ReduceStats
	// Pass 0: sink deferred checks down their block so they cluster.
	// SSA registers are immutable once written, so moving a tx.check
	// later in the same block compares the same values; its reaction is
	// deferred to the next commit point anyway, so any position before
	// that commit detects the same divergences. Sinking stops at every
	// potential commit or externalization boundary: calls (tx.cond_split
	// and tx.end commit; externals leave protected code; only the pure
	// tx.counter_inc is transparent), atomics, out, and terminators. On
	// the non-transactional fallback path sinking delays the fail-stop
	// past plain register and memory instructions, which cannot emit
	// output — the run still dies before anything externalizes.
	barrier := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpCall:
			return in.Callee != "tx.counter_inc"
		case ir.OpCallInd, ir.OpOut, ir.OpALoad, ir.OpAStore, ir.OpARMW:
			return true
		}
		return in.Op.IsTerminator()
	}
	for _, b := range f.Blocks {
		type held struct {
			in ir.Instr
			at int // output length when captured
		}
		out := make([]ir.Instr, 0, len(b.Instrs))
		var pending []held
		flush := func() {
			for _, h := range pending {
				if len(out) > h.at {
					st.ChecksSunk++
				}
				out = append(out, h.in)
			}
			pending = pending[:0]
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			if isTxCheck(&in) {
				pending = append(pending, held{in, len(out)})
				continue
			}
			if barrier(&in) {
				flush()
			}
			out = append(out, in)
		}
		flush()
		b.Instrs = out
	}
	// Pass 1: merge adjacent tx.check calls inside each block.
	for _, b := range f.Blocks {
		outI := b.Instrs[:0]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if isTxCheck(&in) {
				for i+1 < len(b.Instrs) && isTxCheck(&b.Instrs[i+1]) {
					in.Args = append(append([]ir.Operand(nil), in.Args...), b.Instrs[i+1].Args...)
					in.Flags |= b.Instrs[i+1].Flags
					i++
					st.CallsCoalesced++
				}
			}
			outI = append(outI, in)
		}
		b.Instrs = outI
	}
	// Pass 2: or-combine eager check chains across their continuation
	// blocks. A detection branch (possibly already the head of a
	// combined check) whose continuation block is exactly one more
	// eager check with the same detection target absorbs that check:
	// the compare is pulled up, or-ed into the branch condition, and
	// the branch skips past the absorbed block. Repeat until no chain
	// shrinks.
	for {
		merged := false
		preds := predCounts(f)
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				continue
			}
			br := &b.Instrs[len(b.Instrs)-1]
			if br.Op != ir.OpBr || !br.HasFlag(ir.FlagDetect) || br.Args[0].IsConst {
				continue
			}
			det, cont := br.Blocks[0], br.Blocks[1]
			nb := f.Blocks[cont]
			// The continuation must be exactly one more eager check with
			// the same detection target and no other way in.
			if cont == det || preds[cont] != 1 || len(nb.Instrs) != 2 || checkPattern(nb) != 0 {
				continue
			}
			nbr := nb.Instrs[1]
			if nbr.Blocks[0] != det {
				continue
			}
			// Pull the cmp up, or the two conditions, retarget the
			// branch past the absorbed block.
			cmp2 := nb.Instrs[0].Clone()
			orRes := f.NewValue()
			d1 := br.Args[0].Reg
			flags := br.Flags | nbr.Flags
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1],
				cmp2,
				ir.Instr{
					Op: ir.OpOr, Res: orRes,
					Args:  []ir.Operand{ir.Reg(d1), ir.Reg(cmp2.Res)},
					Flags: ir.FlagCheck,
				},
				ir.Instr{
					Op: ir.OpBr, Res: ir.NoValue,
					Args:   []ir.Operand{ir.Reg(orRes)},
					Blocks: []int{det, nbr.Blocks[1]},
					Flags:  flags,
				})
			// Gut the absorbed block (now unreachable; the cleanup pass
			// removes it) so its stale edges don't inflate predecessor
			// counts for further chain merging.
			nb.Instrs = []ir.Instr{{Op: ir.OpTrap, Res: ir.NoValue}}
			st.ChecksCoalesced++
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	return st
}

// predCounts counts CFG predecessors per block (phi lists not
// consulted; unreachable blocks included).
func predCounts(f *ir.Func) []int {
	preds := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		seen := map[int]bool{}
		for _, s := range t.Blocks {
			if !seen[s] {
				seen[s] = true
				preds[s]++
			}
		}
	}
	return preds
}
