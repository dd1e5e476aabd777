// Live campaign telemetry: publishing a campaign's per-model state
// into an obs.Registry so cmd/faultinject can stream progress (runs,
// SDC confidence interval, abort-cause histogram) through the same
// debug endpoints haftserve uses.
package fault

import (
	"fmt"

	"repro/internal/htm"
	"repro/internal/obs"
)

// DeclareCampaignMetrics registers the campaign metric families so
// scrapes before the first checkpoint still see typed (if empty)
// families.
func DeclareCampaignMetrics(reg *obs.Registry) {
	reg.Declare("haft_campaign_runs", "gauge", "injection runs executed per fault model")
	reg.Declare("haft_campaign_outcomes", "gauge", "per-model outcome counts (Table 1 classes)")
	reg.Declare("haft_campaign_sdc_pct", "gauge", "silent-data-corruption rate percent per model")
	reg.Declare("haft_campaign_sdc_ci_lo_pct", "gauge", "SDC Wilson confidence interval lower bound percent")
	reg.Declare("haft_campaign_sdc_ci_hi_pct", "gauge", "SDC Wilson confidence interval upper bound percent")
	reg.Declare("haft_campaign_corrected_pct", "gauge", "HAFT-corrected rate percent per model")
	reg.Declare("haft_campaign_moe", "gauge", "per-model margin of error (proportion)")
	reg.Declare("haft_campaign_tx_aborts", "gauge", "transactional aborts by cause per model")
	reg.Declare("haft_campaign_progress", "gauge", "campaign progress: next run index, early-stop flag")
	reg.Declare("haft_campaign_skipped_instrs_total", "counter", "reference-run instructions the runs did not execute (started at a snapshot, ended early)")
	reg.Declare("haft_campaign_executed_instrs_total", "counter", "instructions the injection runs executed")
	reg.Declare("haft_campaign_early_masked_total", "counter", "runs ended early as Masked on re-converging with the reference run")
	reg.Declare("haft_campaign_ref_snapshots", "gauge", "reference-run snapshots the injection runs start from")
	reg.Declare("haft_campaign_ref_stride", "gauge", "dynamic instructions between reference-run snapshots")
	reg.Declare("haft_campaign_ref_snapshot_bytes", "gauge", "memory the reference-run snapshots hold, a block they share counted once")
	reg.Declare("haft_campaign_ref_snapshot_part_bytes", "gauge", "haft_campaign_ref_snapshot_bytes by part of the machine state; the parts sum to it")
}

// PublishProgress writes the campaign's live per-model state into the
// registry. Called by RunCampaign after every batch when
// CampaignConfig.Progress is set; safe to call from checkpoints too.
func PublishProgress(reg *obs.Registry, r *CampaignResult) {
	if reg == nil || r == nil {
		return
	}
	conf := r.Confidence
	if conf == 0 {
		conf = 0.95
	}
	base := fmt.Sprintf("program=%q", r.Name)
	reg.Set("haft_campaign_progress", base+`,what="next_index"`, float64(r.NextIndex))
	stopped := 0.0
	if r.Stopped {
		stopped = 1
	}
	reg.Set("haft_campaign_progress", base+`,what="early_stopped"`, stopped)
	reg.Set("haft_campaign_skipped_instrs_total", base, float64(r.skippedInstrs))
	reg.Set("haft_campaign_executed_instrs_total", base, float64(r.executedInstrs))
	reg.Set("haft_campaign_early_masked_total", base, float64(r.earlyMasked))
	reg.Set("haft_campaign_ref_snapshots", base, float64(r.refSnapshots))
	reg.Set("haft_campaign_ref_stride", base, float64(r.refStride))
	b := r.refSnapshotBytes
	reg.Set("haft_campaign_ref_snapshot_bytes", base, float64(b.Total()))
	for _, part := range []struct {
		name  string
		bytes int
	}{{"memory", b.Memory}, {"tags", b.Tags}, {"registers", b.Registers}, {"htm", b.HTM}, {"other", b.Other}} {
		reg.Set("haft_campaign_ref_snapshot_part_bytes", fmt.Sprintf("%s,part=%q", base, part.name), float64(part.bytes))
	}
	for _, m := range r.PerModel {
		ml := fmt.Sprintf("%s,model=%q", base, m.Model.String())
		reg.Set("haft_campaign_runs", ml, float64(m.Total))
		for o := Outcome(0); o < numOutcomes; o++ {
			reg.Set("haft_campaign_outcomes",
				fmt.Sprintf("%s,outcome=%q", ml, o.String()), float64(m.Counts[o]))
		}
		lo, hi := m.CI(OutcomeSDC, conf)
		reg.Set("haft_campaign_sdc_pct", ml, m.Rate(OutcomeSDC))
		reg.Set("haft_campaign_sdc_ci_lo_pct", ml, lo)
		reg.Set("haft_campaign_sdc_ci_hi_pct", ml, hi)
		reg.Set("haft_campaign_corrected_pct", ml, m.Rate(OutcomeHAFTCorrected))
		reg.Set("haft_campaign_moe", ml, m.MOE(conf))
		for _, c := range []htm.Cause{htm.CauseConflict, htm.CauseCapacity, htm.CauseExplicit, htm.CauseOther} {
			reg.Set("haft_campaign_tx_aborts",
				fmt.Sprintf("%s,cause=%q", ml, c.String()), float64(m.HTM.Aborted[c]))
		}
	}
}
