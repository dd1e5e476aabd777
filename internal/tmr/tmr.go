// Package tmr implements an Elzar-style triple-modular-redundancy
// hardening pass: the correction-oriented counterpart of package ilr's
// detect-and-abort scheme. It is the three-copy instance of ilr's
// replication transformer (ilr.Replicate); this package only names
// its options.
//
// The pass creates two shadow data flows alongside the master flow —
// every replicable instruction is triplicated over disjoint register
// ranges — and inserts 2-of-3 majority-vote intrinsics (tmr.vote) at
// every externalization point: store operands, branch conditions, call
// arguments, output values, and return values. A vote with a single
// diverging replica *corrects* the outlier back to the majority value
// in all three registers and bumps the machine's corrected-fault
// counter; no transaction abort or re-execution is needed. Only a
// triple disagreement (outside the single-event-upset model) raises a
// detection failure.
//
// Coverage notes, mirroring ilr's Figure 3b/4b reasoning:
//
//   - Loads are triplicated through each replica's own address
//     register (the shadow loads are volatile so they cannot be
//     merged); a fault in any one replica's load result or address is
//     outvoted at the next externalization.
//   - Stores vote the value and address triples, then reload the
//     stored cell and compare against the written value, so a memory
//     fault on the store itself is still detected (correction is
//     impossible once only one copy of the data exists in memory).
//   - Conditional branches vote the condition triple and then route
//     control through a branch-level majority cascade: the master
//     branch picks a side, and the two shadow conditions confirm it,
//     with any single mis-taken branch outvoted by the other two.
package tmr

import (
	"repro/internal/ilr"
	"repro/internal/ir"
)

// Options configures the pass.
type Options struct {
	// ControlFlow enables the branch-level majority cascade. When
	// disabled, conditional branches only vote the condition triple and
	// branch once on the master copy (cheaper, but a fault in the
	// branch unit itself then goes uncorrected).
	ControlFlow bool
}

// AllOptions returns the fully protected configuration.
func AllOptions() Options {
	return Options{ControlFlow: true}
}

// Apply transforms every protected function of m in place. Loads are
// always triplicated through each replica's own address (ilr's
// SharedMem scheme); fault-propagation checks are never added, since a
// diverging induction variable is corrected at the next vote.
func Apply(m *ir.Module, opts Options) {
	ilr.Replicate(m, 3, ilr.Options{SharedMem: true, ControlFlow: opts.ControlFlow})
}
