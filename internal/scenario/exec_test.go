package scenario

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/vm"
)

// TestTwinComparison: results that differ in one model's outcome count,
// one RunStats field or the status fail the twin check, which names the
// field; equal results pass.
func TestTwinComparison(t *testing.T) {
	campaign := func(sdc int) *fault.CampaignResult {
		mr := &fault.ModelResult{Model: fault.ModelRegister, Total: 12}
		mr.Counts[fault.OutcomeSDC] = sdc
		return &fault.CampaignResult{Name: "t", PerModel: []*fault.ModelResult{mr}, RefCycles: 100}
	}
	run := func(status vm.Status, cycles uint64) health {
		return health{Status: status, Stats: vm.RunStats{Cycles: cycles, DynInstrs: 50}, Output: []uint64{7}}
	}
	if err := agree("campaign", campaign(1), campaign(1)); err != nil {
		t.Errorf("equal campaigns disagree: %v", err)
	}
	if err := agree("health", run(vm.StatusOK, 9), run(vm.StatusOK, 9)); err != nil {
		t.Errorf("equal health runs disagree: %v", err)
	}
	for _, tc := range []struct {
		name, what  string
		ahead, twin any
		field       string
	}{
		{"outcome count", "campaign", campaign(1), campaign(2), "campaign.PerModel[0].Counts"},
		{"RunStats field", "health", run(vm.StatusOK, 9), run(vm.StatusOK, 10), "health.Stats.Cycles"},
		{"status", "health", run(vm.StatusOK, 9), run(vm.StatusCrashed, 9), "health.Status"},
	} {
		err := agree(tc.what, tc.ahead, tc.twin)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: got %v, want a disagreement at %s", tc.name, err, tc.field)
		}
	}
}
