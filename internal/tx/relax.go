// TX-aware check relaxation (§3.3, "Collaboration of ILR and TX"):
// inside a transaction every side effect is buffered by the HTM until
// commit, so an ILR check does not need to branch eagerly — it only
// needs to guarantee the transaction cannot commit a diverged state.
// The relaxation rewrites each eligible cmp+branch check pair into a
// single branch-free tx.check runtime call that records a divergence
// flag; the machine aborts the transaction at the next commit point if
// the flag is set ("abort-on-divergence at commit"). Outside a
// transaction (fallback runs after retry exhaustion) tx.check degrades
// to an eager fail-stop, so no protection is lost on any path.
//
// Checks marked ir.FlagExtern guard true externalization points —
// addresses about to be dereferenced, atomics, values escaping to
// unprotected code before a commit — and are never relaxed.

package tx

import "repro/internal/ir"

// RelaxStats reports what the relaxation did.
type RelaxStats struct {
	// Relaxed counts cmp+branch check pairs rewritten into tx.check
	// calls.
	Relaxed int
	// LoadsFolded counts store-verification load-backs folded into
	// direct master/shadow pair checks (each removes one shadow memory
	// access per dynamic store).
	LoadsFolded int
	// CountersFolded counts loop-latch tx.counter_inc calls absorbed
	// into the loop header's tx.cond_split (one dynamic instruction per
	// loop iteration).
	CountersFolded int
	// KeptEager counts checks left eager because they carry
	// ir.FlagExtern.
	KeptEager int
}

// Total returns the number of rewrites.
func (s RelaxStats) Total() int { return s.Relaxed + s.LoadsFolded + s.CountersFolded }

// Relax rewrites the relaxable ILR checks of every protected function
// into deferred tx.check calls. It must run after Apply has placed the
// transaction boundaries: the soundness of the deferral rests on every
// externalization being preceded by a commit point.
func Relax(m *ir.Module) RelaxStats {
	var st RelaxStats
	for _, f := range m.Funcs {
		if f.Attrs.Unprotected {
			continue
		}
		st.add(relaxFunc(f))
		st.add(foldCounters(f))
	}
	return st
}

func (s *RelaxStats) add(o RelaxStats) {
	s.Relaxed += o.Relaxed
	s.LoadsFolded += o.LoadsFolded
	s.CountersFolded += o.CountersFolded
	s.KeptEager += o.KeptEager
}

// foldCounters absorbs loop-latch counter increments into the loop
// header's conditional split: a latch ending "tx.counter_inc #k; jmp H"
// where H's first non-phi instruction is "tx.cond_split #thr" becomes a
// plain jmp, and the split becomes "tx.cond_split #thr, #k". The fold
// fires only when every such latch of H carries the same increment; the
// counter is then also bumped once per loop *entry*, a bounded
// overestimate of the transaction-size heuristic (k is one block's cost
// against a threshold three orders of magnitude larger), never a
// correctness concern — the counter only decides where transactions
// split.
func foldCounters(f *ir.Func) RelaxStats {
	var st RelaxStats
	// Adjacent form first — "tx.counter_inc #k; tx.cond_split #thr"
	// (emitted around local calls) folds exactly, with no change in
	// counter semantics.
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if i+1 < len(b.Instrs) && in.Op == ir.OpCall && in.Callee == "tx.counter_inc" &&
				in.Args[0].IsConst {
				next := &b.Instrs[i+1]
				if next.Op == ir.OpCall && next.Callee == "tx.cond_split" && len(next.Args) == 1 {
					split := next.Clone()
					split.Args = append(split.Args, in.Args[0])
					out = append(out, split)
					i++
					st.CountersFolded++
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	type latch struct{ block, index int }
	// Group counter_inc+jmp latches by their jump target.
	latches := map[int][]latch{}
	incs := map[int][]int64{}
	for bi, b := range f.Blocks {
		n := len(b.Instrs)
		if n < 2 {
			continue
		}
		jmp := &b.Instrs[n-1]
		ci := &b.Instrs[n-2]
		if jmp.Op != ir.OpJmp || ci.Op != ir.OpCall || ci.Callee != "tx.counter_inc" ||
			!ci.Args[0].IsConst {
			continue
		}
		h := jmp.Blocks[0]
		latches[h] = append(latches[h], latch{bi, n - 2})
		incs[h] = append(incs[h], int64(ci.Args[0].Const))
	}
	for h, ls := range latches {
		ks := incs[h]
		uniform := true
		for _, k := range ks[1:] {
			if k != ks[0] {
				uniform = false
				break
			}
		}
		if !uniform {
			continue
		}
		// Find the header's split: first instruction after the phis.
		hb := f.Blocks[h]
		si := 0
		for si < len(hb.Instrs) && hb.Instrs[si].Op == ir.OpPhi {
			si++
		}
		if si >= len(hb.Instrs) {
			continue
		}
		split := &hb.Instrs[si]
		if split.Op != ir.OpCall || split.Callee != "tx.cond_split" || len(split.Args) != 1 {
			continue
		}
		split.Args = append(split.Args, ir.ConstInt(ks[0]))
		for _, l := range ls {
			b := f.Blocks[l.block]
			b.Instrs = append(b.Instrs[:l.index], b.Instrs[l.index+1:]...)
			st.CountersFolded++
		}
	}
	return st
}

func relaxFunc(f *ir.Func) RelaxStats {
	var st RelaxStats
	uses := useCounts(f)
	for _, b := range f.Blocks {
		n := len(b.Instrs)
		if n < 2 {
			continue
		}
		br := &b.Instrs[n-1]
		if br.Op != ir.OpBr || !br.HasFlag(ir.FlagDetect) || br.Args[0].IsConst {
			continue
		}
		cmp := &b.Instrs[n-2]
		if cmp.Op != ir.OpCmp || !cmp.HasFlag(ir.FlagCheck) || cmp.Pred != ir.PredNE ||
			cmp.Res != br.Args[0].Reg {
			continue
		}
		if cmp.HasFlag(ir.FlagExtern) {
			st.KeptEager++
			continue
		}
		cont := br.Blocks[1]
		flags := ir.FlagCheck | ir.FlagTXHelper | (cmp.Flags & ir.FlagFaultProp)

		// Store-verification folding: the shared-memory scheme verifies
		// a store by re-loading through the shadow address and comparing
		// with the shadow value (store A,V; L = load SA; check L,SV).
		// Under deferred checking the load-back is unnecessary — compare
		// the operand pairs directly: tx.check A,SA,V,SV; store A,V.
		// The direct form detects the same register corruptions (of the
		// address pair or the value pair) one instruction and one memory
		// access cheaper, and moves detection before the store, which
		// only strengthens the non-transactional fallback path.
		if n >= 4 {
			stIn, ld := &b.Instrs[n-4], &b.Instrs[n-3]
			if stIn.Op == ir.OpStore && ld.Op == ir.OpLoad && ld.Volatile &&
				ld.HasFlag(ir.FlagShadow) && ld.Res != ir.NoValue && uses[ld.Res] == 1 &&
				!cmp.Args[0].IsConst && cmp.Args[0].Reg == ld.Res {
				var pairs []ir.Operand
				addPair := func(a, b ir.Operand) {
					if a.IsConst && b.IsConst {
						return // equal by construction, nothing to compare
					}
					pairs = append(pairs, a, b)
				}
				addPair(stIn.Args[0], ld.Args[0])  // address, shadow address
				addPair(stIn.Args[1], cmp.Args[1]) // value, shadow value
				store := *stIn
				if len(pairs) > 0 {
					b.Instrs[n-4] = ir.Instr{
						Op: ir.OpCall, Res: ir.NoValue, Callee: "tx.check",
						Args: pairs, Flags: flags,
					}
					b.Instrs[n-3] = store
					b.Instrs[n-2] = ir.Instr{Op: ir.OpJmp, Res: ir.NoValue, Blocks: []int{cont}}
					b.Instrs = b.Instrs[:n-1]
				} else {
					b.Instrs[n-4] = store
					b.Instrs[n-3] = ir.Instr{Op: ir.OpJmp, Res: ir.NoValue, Blocks: []int{cont}}
					b.Instrs = b.Instrs[:n-2]
				}
				st.Relaxed++
				st.LoadsFolded++
				continue
			}
		}

		b.Instrs[n-2] = ir.Instr{
			Op: ir.OpCall, Res: ir.NoValue, Callee: "tx.check",
			Args:  []ir.Operand{cmp.Args[0], cmp.Args[1]},
			Flags: flags,
		}
		b.Instrs[n-1] = ir.Instr{Op: ir.OpJmp, Res: ir.NoValue, Blocks: []int{cont}}
		st.Relaxed++
	}
	return st
}

// useCounts counts register uses (operand references) per value.
func useCounts(f *ir.Func) map[ir.ValueID]int {
	uses := make(map[ir.ValueID]int)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			for _, a := range b.Instrs[i].Args {
				if !a.IsConst {
					uses[a.Reg]++
				}
			}
		}
	}
	return uses
}
