// Package tx implements HAFT's transactification pass for fault
// recovery (§3.2–3.3 of the paper).
//
// The pass covers the whole execution of every protected function with
// hardware transactions at function and loop granularity, balancing
// transaction size against abort probability:
//
//   - a transaction begins at function entry and ends before every
//     return;
//   - every loop header receives a conditional transaction split
//     (tx.cond_split) that commits the current transaction and starts
//     a new one only once a thread-local instruction counter exceeds a
//     threshold, and every loop latch increments the counter by the
//     longest instruction path through the loop body (a worst-case
//     bound on the work per iteration);
//   - calls to unknown or external functions pessimistically end the
//     current transaction before the call and begin a new one after
//     it; calls to functions marked local use the much cheaper
//     counter-increment + conditional-split protocol (§3.3);
//   - fault-propagation checks inserted by the ILR pass (marked with
//     ir.FlagFaultProp) stay ahead of the conditional split so that a
//     corrupted induction variable is detected before the previous
//     transaction commits (§3.3, "Collaboration of ILR and TX");
//   - with lock elision enabled, lock acquire/release calls are
//     replaced by wrappers that run critical sections under the
//     protection of the active recovery transaction (§3.3);
//   - a peephole removes empty transactions (a begin immediately
//     followed by an end).
package tx

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Options configures the transactification.
type Options struct {
	// Threshold is the instruction-count bound at which a conditional
	// split commits and restarts the transaction (the "transaction
	// size" swept in Figure 8; the paper's default working points are
	// 1000–5000 instructions).
	Threshold int64
	// LocalCalls enables the local-function-call optimization (§3.3).
	LocalCalls bool
	// LockElision replaces lock.acquire/lock.release with eliding
	// wrappers (§3.3).
	LockElision bool
	// Blacklist names functions that must be treated as externally
	// called even if marked local (the developer-provided list of
	// §3.3).
	Blacklist map[string]bool
}

// DefaultOptions returns the configuration used for the headline
// results: threshold 1000, all optimizations on.
func DefaultOptions() Options {
	return Options{Threshold: 1000, LocalCalls: true, LockElision: false}
}

// Apply transforms every protected function of m in place.
func Apply(m *ir.Module, opts Options) {
	if opts.Threshold <= 0 {
		opts.Threshold = 1000
	}
	for i, f := range m.Funcs {
		if f.Attrs.Unprotected {
			continue
		}
		m.Funcs[i] = transformFunc(m, f, opts)
	}
}

func isLocal(m *ir.Module, opts Options, name string) bool {
	if !opts.LocalCalls || opts.Blacklist[name] {
		return false
	}
	callee := m.Func(name)
	return callee != nil && callee.Attrs.Local && !callee.Attrs.Unprotected
}

// calleeCost is the counter increment charged for a call to a local
// function: the longest acyclic instruction path through its body
// (loops inside the callee maintain the counter themselves).
func calleeCost(m *ir.Module, name string) int64 {
	f := m.Func(name)
	if f == nil {
		return 16
	}
	g := cfg.New(f)
	// Longest path over the acyclic condensation: DP in reverse
	// postorder ignoring back edges (edges to dominators).
	dist := make([]int64, len(f.Blocks))
	var max int64
	for _, b := range g.RPO {
		d := dist[b] + int64(len(f.Blocks[b].Instrs))
		if d > max {
			max = d
		}
		for _, s := range g.Succs[b] {
			if g.Dominates(s, b) {
				continue // back edge
			}
			if d > dist[s] {
				dist[s] = d
			}
		}
	}
	return max
}

// external intrinsics force a transaction boundary; tx-safe intrinsics
// run inside transactions.
func externalIntrinsic(name string) bool {
	switch name {
	case "malloc", "free", "barrier.wait", "sys.read", "sys.write",
		"lock.acquire", "lock.release":
		return true
	}
	return false
}

func helperCall(callee string, args ...ir.Operand) ir.Instr {
	return ir.Instr{
		Op: ir.OpCall, Res: ir.NoValue, Callee: callee,
		Args: args, Flags: ir.FlagTXHelper,
	}
}

func transformFunc(m *ir.Module, f *ir.Func, opts Options) *ir.Func {
	g := cfg.New(f)
	loops := g.Loops()

	// Per-block insertion plans.
	headerOf := map[int]bool{}  // loop headers needing a cond split
	latchInc := map[int]int64{} // latch block -> counter increment
	for _, l := range loops {
		headerOf[l.Header] = true
		for _, latch := range l.Latches {
			n := int64(g.LongestPathToLatch(l, latch))
			if n > latchInc[latch] {
				latchInc[latch] = n
			}
		}
	}

	local := f.Attrs.Local && opts.LocalCalls && !opts.Blacklist[f.Name]
	thr := ir.ConstInt(opts.Threshold)

	nf := &ir.Func{
		Name:       f.Name,
		NParams:    f.NParams,
		NValues:    f.NValues,
		FrameBytes: f.FrameBytes,
		Attrs:      f.Attrs,
	}
	for bi, b := range f.Blocks {
		nb := &ir.Block{Name: b.Name}
		out := func(in ir.Instr) { nb.Instrs = append(nb.Instrs, in) }

		i := 0
		// Keep the phi group at the block head.
		for i < len(b.Instrs) && b.Instrs[i].Op == ir.OpPhi {
			out(b.Instrs[i].Clone())
			i++
		}
		// Entry prologue: external functions open a transaction; local
		// functions merely split if the counter is high (§3.3).
		if bi == 0 {
			if local {
				out(helperCall("tx.cond_split", thr))
			} else {
				out(helperCall("tx.begin"))
			}
		}
		// Fault-propagation checks (ILR metadata) stay ahead of the
		// conditional split: the check must fire before the previous
		// transaction commits. The check is a cmp followed by a
		// detect-branch terminator, so it trails the block; the split
		// then belongs to the *continuation* block. We detect that
		// case here by deferring the split when the remaining block is
		// exactly a fault-prop check.
		if headerOf[bi] {
			if !isFaultPropTail(b, i) {
				out(helperCall("tx.cond_split", thr))
			} else {
				// Mark the continuation block (the branch's false
				// target) as needing the split instead.
				term := b.Terminator()
				headerOf[term.Blocks[1]] = true
			}
		}
		for ; i < len(b.Instrs); i++ {
			in := &b.Instrs[i]
			switch {
			case in.Op == ir.OpCall && !in.HasFlag(ir.FlagTXHelper):
				t := callTreatment(m, opts, in.Callee)
				switch t {
				case callLocal:
					out(in.Clone())
					out(helperCall("tx.counter_inc", ir.ConstInt(calleeCost(m, in.Callee))))
					out(helperCall("tx.cond_split", thr))
				case callExternal:
					out(helperCall("tx.end"))
					out(in.Clone())
					out(helperCall("tx.begin"))
				case callElideAcquire:
					c := in.Clone()
					c.Callee = "lock.acquire_elide"
					out(c)
				case callElideRelease:
					c := in.Clone()
					c.Callee = "lock.release_elide"
					out(c)
				default: // tx-safe: ilr.fail, helpers from source, protected non-local calls
					out(in.Clone())
				}
			case in.Op == ir.OpCallInd:
				// Function pointers are conservatively external (the
				// SQLite case study, §6.2).
				out(helperCall("tx.end"))
				out(in.Clone())
				out(helperCall("tx.begin"))
			case in.Op == ir.OpOut:
				// Externalization is TSX-unfriendly; commit around it.
				out(helperCall("tx.end"))
				out(in.Clone())
				out(helperCall("tx.begin"))
			case in.Op == ir.OpRet:
				if local {
					out(helperCall("tx.counter_inc", ir.ConstInt(int64(i)+1)))
				} else {
					out(helperCall("tx.end"))
				}
				out(in.Clone())
			default:
				if inc := latchInc[bi]; inc > 0 && i == len(b.Instrs)-1 && in.Op.IsTerminator() {
					out(helperCall("tx.counter_inc", ir.ConstInt(inc)))
				}
				out(in.Clone())
			}
		}
		nf.Blocks = append(nf.Blocks, nb)
	}
	peephole(nf) // drop begin/end pairs with nothing between them
	return nf
}

type callKind uint8

const (
	callSafe callKind = iota
	callLocal
	callExternal
	callElideAcquire
	callElideRelease
)

func callTreatment(m *ir.Module, opts Options, callee string) callKind {
	if ir.IsIntrinsic(callee) {
		if opts.LockElision {
			switch callee {
			case "lock.acquire":
				return callElideAcquire
			case "lock.release":
				return callElideRelease
			}
		}
		if externalIntrinsic(callee) {
			return callExternal
		}
		return callSafe // tx helpers, ilr.fail, thread.id, ...
	}
	f := m.Func(callee)
	if f == nil || f.Attrs.Unprotected {
		return callExternal
	}
	if isLocal(m, opts, callee) {
		return callLocal
	}
	// Protected but externally-callable function: it will begin/end
	// its own transaction, so end ours around the call.
	return callExternal
}

// isFaultPropTail reports whether the rest of block b from index i is
// exactly a fault-propagation check: one or more flagged cmps followed
// by a flagged detect branch.
func isFaultPropTail(b *ir.Block, i int) bool {
	n := 0
	for ; i < len(b.Instrs); i++ {
		in := &b.Instrs[i]
		if in.Op == ir.OpCmp && in.HasFlag(ir.FlagCheck|ir.FlagFaultProp) {
			n++
			continue
		}
		if in.Op == ir.OpBr && in.HasFlag(ir.FlagDetect|ir.FlagFaultProp) {
			return n > 0 && i == len(b.Instrs)-1
		}
		return false
	}
	return false
}

// peephole removes tx.begin immediately followed by tx.end — empty
// transactions that only cost two HTM round trips (§4.1).
func peephole(f *ir.Func) {
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := 0; i < len(b.Instrs); i++ {
			in := &b.Instrs[i]
			if i+1 < len(b.Instrs) && isHelper(in, "tx.begin") && isHelper(&b.Instrs[i+1], "tx.end") {
				i++ // drop both
				continue
			}
			out = append(out, *in)
		}
		b.Instrs = out
	}
}

func isHelper(in *ir.Instr, name string) bool {
	return in.Op == ir.OpCall && in.Callee == name && in.HasFlag(ir.FlagTXHelper)
}
