package exp

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/workloads"
)

// fiModelBenches is the default drill-down pair for the multi-model
// campaigns: the paper's §5.5 per-benchmark discussion singles out
// linearreg (best case) and canneal (worst case).
var fiModelBenches = []string{"linearreg", "canneal"}

// FIModels runs the multi-model fault-injection campaign: every fault
// model (register, memory, branch, address, skip, double-SEU) against
// the HAFT-hardened build of each benchmark, with o.Injections runs
// per model, stratified sampling, and Wilson confidence intervals. A
// positive o.MOE stops each campaign early once every model's margin
// of error is reached.
func FIModels(o Options) ([]*fault.CampaignResult, *report.Table, error) {
	list := o.Benchmarks
	if len(list) == 0 {
		list = fiModelBenches
	}
	models := fault.AllModels()
	results := parallelMap(len(list), func(i int) *fault.CampaignResult {
		spec, err := workloads.ByName(list[i])
		if err != nil {
			panic(err)
		}
		tg := fiTarget(spec, core.ModeHAFT, core.OptFaultProp, o)
		cr, err := fault.RunCampaign(tg, fault.CampaignConfig{
			Models:     models,
			Injections: o.Injections * len(models),
			Seed:       o.Seed,
			MOE:        o.MOE,
		})
		if err != nil {
			panic(err)
		}
		return cr
	})
	return results, fault.CampaignTable(results...), nil
}
