// Package core composes HAFT's two compiler passes — ILR for fault
// detection and TX for fault recovery — into the hardening pipeline
// described in §3 and §4.1 of the paper: ILR is applied first,
// replicating the data flow and inserting checks, and TX is applied
// second, covering the program with hardware transactions and turning
// check failures into transaction aborts. A third, Elzar-style backend
// (ModeTMR, package tmr) triplicates the data flow and corrects faults
// in place by majority vote instead of detecting and aborting.
package core

import (
	"fmt"
	"strings"

	"repro/internal/ilr"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/tmr"
	"repro/internal/tx"
)

// Mode selects which passes run, mirroring the configurations compared
// throughout the evaluation (Table 2, Figure 9).
type Mode uint8

const (
	// ModeNative applies no hardening.
	ModeNative Mode = iota
	// ModeILR applies only instruction-level redundancy: faults are
	// detected and the program fail-stops.
	ModeILR
	// ModeTX applies only transactification (no detection); used to
	// measure the TX component's overhead in Table 2.
	ModeTX
	// ModeHAFT applies ILR followed by TX: detection plus recovery.
	ModeHAFT
	// ModeTMR applies Elzar-style triple modular redundancy: the data
	// flow is triplicated and majority votes at externalization points
	// correct a diverging replica in place — no transactions, no
	// aborts, no re-execution.
	ModeTMR
	numModes
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeILR:
		return "ilr"
	case ModeTX:
		return "tx"
	case ModeHAFT:
		return "haft"
	case ModeTMR:
		return "tmr"
	}
	return "mode?"
}

// ParseMode is the inverse of Mode.String; an unknown name lists the
// valid ones.
func ParseMode(name string) (Mode, error) {
	var names []string
	for m := Mode(0); m < numModes; m++ {
		if m.String() == name {
			return m, nil
		}
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("unknown hardening mode %q (valid: %s)", name, strings.Join(names, ", "))
}

// OptLevel is the cumulative optimization ladder of Figure 7 and
// Figure 9 (right): each level adds one §3.3 optimization to the
// previous one.
type OptLevel uint8

const (
	// OptNone: no §3.3 optimizations.
	OptNone OptLevel = iota
	// OptSharedMem: + ILR shared-memory access scheme (Figure 3b).
	OptSharedMem
	// OptControlFlow: + ILR shadow-block branch protection (Figure 4b).
	OptControlFlow
	// OptLocalCalls: + TX local-function-call optimization.
	OptLocalCalls
	// OptFaultProp: + ILR/TX fault propagation check (the full HAFT).
	OptFaultProp
)

// String returns the short label used in the paper's figures
// (N/S/C/L/F).
func (o OptLevel) String() string {
	switch o {
	case OptNone:
		return "N"
	case OptSharedMem:
		return "S"
	case OptControlFlow:
		return "C"
	case OptLocalCalls:
		return "L"
	case OptFaultProp:
		return "F"
	}
	return "?"
}

// OptLevels lists the ladder in order.
func OptLevels() []OptLevel {
	return []OptLevel{OptNone, OptSharedMem, OptControlFlow, OptLocalCalls, OptFaultProp}
}

// Config selects the hardening applied by Harden.
type Config struct {
	Mode Mode
	// Opt is the cumulative optimization level (default OptFaultProp,
	// i.e. everything on).
	Opt OptLevel
	// TxThreshold is the transaction-size threshold in instructions
	// (Figure 8 sweeps it; default 1000).
	TxThreshold int64
	// LockElision enables the lock-elision wrappers (§3.3; evaluated
	// on Memcached in §6.1).
	LockElision bool
	// Blacklist names externally-called functions exempted from the
	// local-call optimization (§3.3).
	Blacklist map[string]bool
	// Optimize runs the standard scalar optimizations (package opt)
	// before the hardening passes, mirroring the paper's build flow
	// where LLVM -O3 runs on the bitcode first (§4.1).
	Optimize bool

	// The check-reduction suite (§3.3, "the passes eliminate redundant
	// checks"). Each pass is independently toggleable; all default to
	// off so that the naive pipeline remains the measurable baseline.
	//
	// CopyProp forwards shadow/master copies so both flows share one
	// replica computation per copied value.
	CopyProp bool
	// ReduceChecks eliminates checks whose master/shadow pair is
	// already checked on every path since its last definition.
	ReduceChecks bool
	// CoalesceChecks merges adjacent per-operand checks into one
	// combined compare (eager) or one variadic tx.check (relaxed).
	CoalesceChecks bool
	// RelaxTX rewrites checks strictly inside transactions to the
	// abort-on-divergence-at-commit scheme, keeping eager checks only
	// at true externalization points. Effective in ModeHAFT only.
	RelaxTX bool
}

// anyReduction reports whether any overhead-reduction pass is enabled.
func (c Config) anyReduction() bool {
	return c.CopyProp || c.ReduceChecks || c.CoalesceChecks || c.RelaxTX
}

// DefaultConfig returns full HAFT with all optimizations.
func DefaultConfig() Config {
	return Config{Mode: ModeHAFT, Opt: OptFaultProp, TxThreshold: 1000}
}

// ReducedConfig returns full HAFT with the whole overhead-reduction
// suite enabled on top of the §3.3 optimization ladder.
func ReducedConfig() Config {
	c := DefaultConfig()
	c.CopyProp = true
	c.ReduceChecks = true
	c.CoalesceChecks = true
	c.RelaxTX = true
	return c
}

// tmrOptions maps an OptLevel onto the TMR pass switches. tmr.Apply
// runs the ILR replication engine with three copies and
// ilr.Options{SharedMem: true, ControlFlow: ControlFlow}: loads are
// always triplicated, and there are no fault-propagation checks
// (divergent replicas are corrected at the next vote, so induction
// variables cannot diverge silently). Only the branch-majority
// cascade rides the ladder.
func tmrOptions(o OptLevel) tmr.Options {
	return tmr.Options{ControlFlow: o >= OptControlFlow}
}

// ilrOptions maps an OptLevel onto the ILR pass switches.
func ilrOptions(o OptLevel) ilr.Options {
	return ilr.Options{
		SharedMem:   o >= OptSharedMem,
		ControlFlow: o >= OptControlFlow,
		FaultProp:   o >= OptFaultProp,
	}
}

// txOptions maps the config onto the TX pass switches.
func txOptions(c Config) tx.Options {
	return tx.Options{
		Threshold:   c.TxThreshold,
		LocalCalls:  c.Opt >= OptLocalCalls,
		LockElision: c.LockElision,
		Blacklist:   c.Blacklist,
	}
}

// HardenStats reports what each stage of the hardening pipeline did.
// Zero-valued fields mean the corresponding stage did not run.
type HardenStats struct {
	// Relax reports the TX-aware check relaxation (ModeHAFT + RelaxTX).
	Relax tx.RelaxStats
	// Reduce reports the ILR check-reduction passes.
	Reduce ilr.ReduceStats
	// Cleanup reports the post-reduction scalar cleanup (jump
	// threading, block merging, dead-code elimination) that turns the
	// reductions into actual dynamic-instruction savings.
	Cleanup opt.Stats
}

// VerifyEachPass, when set (test builds), re-verifies the module after
// every stage of the hardening pipeline so that a pass that corrupts
// the IR is caught at its own doorstep rather than downstream.
var VerifyEachPass = false

// Harden clones the module, applies the configured passes, verifies
// the result and returns it. The input module is left untouched (it
// remains the native baseline).
func Harden(m *ir.Module, cfg Config) (*ir.Module, error) {
	out, _, err := HardenWithStats(m, cfg)
	return out, err
}

// HardenWithStats is Harden, additionally reporting per-stage
// statistics for the overhead-reduction suite.
func HardenWithStats(m *ir.Module, cfg Config) (*ir.Module, HardenStats, error) {
	var st HardenStats
	out := m.Clone()
	stage := func(name string) error {
		if !VerifyEachPass {
			return nil
		}
		if err := ir.Verify(out); err != nil {
			return fmt.Errorf("core: module fails verification after %s: %w", name, err)
		}
		return nil
	}
	if cfg.Optimize {
		opt.Apply(out)
		if err := ir.Verify(out); err != nil {
			return nil, st, fmt.Errorf("core: optimized module fails verification: %w", err)
		}
	}
	switch cfg.Mode {
	case ModeNative:
	case ModeILR:
		ilr.Apply(out, ilrOptions(cfg.Opt))
	case ModeTX:
		tx.Apply(out, txOptions(cfg))
	case ModeHAFT:
		ilr.Apply(out, ilrOptions(cfg.Opt))
		if err := stage("ilr"); err != nil {
			return nil, st, err
		}
		tx.Apply(out, txOptions(cfg))
	case ModeTMR:
		tmr.Apply(out, tmrOptions(cfg.Opt))
	default:
		return nil, st, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	if err := stage("hardening"); err != nil {
		return nil, st, err
	}
	// The overhead-reduction suite runs on the fully hardened module:
	// relaxation first (it needs the TX boundaries in place), then the
	// ILR reductions, with a scalar cleanup in between — block merging
	// makes relaxed tx.check calls adjacent so coalescing can see them —
	// and one after, to delete the code the reductions orphaned.
	if cfg.anyReduction() && (cfg.Mode == ModeILR || cfg.Mode == ModeHAFT) {
		if cfg.RelaxTX && cfg.Mode == ModeHAFT {
			st.Relax = tx.Relax(out)
			if err := stage("tx.relax"); err != nil {
				return nil, st, err
			}
		}
		st.Cleanup.Add(opt.Apply(out))
		if err := stage("cleanup"); err != nil {
			return nil, st, err
		}
		st.Reduce = ilr.Reduce(out, ilr.ReduceOptions{
			CopyProp:        cfg.CopyProp,
			RedundantChecks: cfg.ReduceChecks,
			Coalesce:        cfg.CoalesceChecks,
		})
		if err := stage("ilr.reduce"); err != nil {
			return nil, st, err
		}
		st.Cleanup.Add(opt.Apply(out))
	}
	if err := ir.Verify(out); err != nil {
		return nil, st, fmt.Errorf("core: hardened module fails verification: %w", err)
	}
	return out, st, nil
}

// MustHarden is Harden that panics on error, for tests and fixtures.
func MustHarden(m *ir.Module, cfg Config) *ir.Module {
	out, err := Harden(m, cfg)
	if err != nil {
		panic(err)
	}
	return out
}
