// Flow rules: which fault flows exist under which hardening mode.
//
// A FaultFlow restricts register-indexed fault models to one redundant
// data flow, but a flow only exists if the hardening pipeline built it:
// native and tx-only builds have no shadow instructions, ILR and HAFT
// build one shadow flow, and TMR builds two. Targeting a flow that the
// selected mode never emits would leave the campaign with an empty
// injection population — the run would either fail outright or, worse,
// report a vacuous zero-SDC result from zero strata.
//
// This table is the single source of truth for that compatibility
// question; cmd/faultinject validates its -flow flag against it and
// internal/scenario prunes its run matrices with it.

package fault

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/vm"
)

// AllFlows lists every fault flow in declaration order.
func AllFlows() []vm.FaultFlow {
	return []vm.FaultFlow{vm.FlowAny, vm.FlowMaster, vm.FlowShadow, vm.FlowShadow2}
}

// FlowName returns the canonical name of a flow ("any", "master",
// "shadow", "shadow2").
func FlowName(f vm.FaultFlow) string {
	switch f {
	case vm.FlowAny:
		return "any"
	case vm.FlowMaster:
		return "master"
	case vm.FlowShadow:
		return "shadow"
	case vm.FlowShadow2:
		return "shadow2"
	}
	return "flow?"
}

// FlowsForMode returns the fault flows that can select at least one
// instruction under the named hardening mode (native, ilr, tx, haft,
// tmr).
func FlowsForMode(mode string) ([]vm.FaultFlow, error) {
	m, err := core.ParseMode(mode)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	switch m {
	case core.ModeILR, core.ModeHAFT:
		return []vm.FaultFlow{vm.FlowAny, vm.FlowMaster, vm.FlowShadow}, nil
	case core.ModeTMR:
		return AllFlows(), nil
	}
	return []vm.FaultFlow{vm.FlowAny, vm.FlowMaster}, nil
}

// ValidateFlowForMode rejects flow restrictions that cannot select any
// instruction under the given hardening mode. The error names every
// flow that is valid for the mode.
func ValidateFlowForMode(mode string, flow vm.FaultFlow) error {
	valid, err := FlowsForMode(mode)
	if err != nil {
		return err
	}
	names := make([]string, len(valid))
	for i, f := range valid {
		names[i] = FlowName(f)
		if f == flow {
			return nil
		}
	}
	return fmt.Errorf("fault: flow %q does not exist under mode %q (valid flows for %s: %s)",
		FlowName(flow), mode, mode, strings.Join(names, ", "))
}

// TMRCorrectable reports whether single faults of this model are
// corrected (or turned into crashes) by construction under TMR: a
// flipped replica register, a skipped replica instruction, a mis-taken
// branch, or a corrupted address register never reaches the output.
// Memory-word flips and double upsets are excluded — once data lives in
// its single memory copy, voting cannot restore it.
func (m Model) TMRCorrectable() bool {
	switch m {
	case ModelRegister, ModelBranch, ModelAddress, ModelSkip:
		return true
	}
	return false
}
