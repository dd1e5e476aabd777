package serve

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The replay localizer closes the detect → diagnose loop: a flight
// bundle records a batch that a defense layer flagged (ILR fail-stop,
// TMR vote, host verifier, cluster vote mask) together with the exact
// fault plans that were armed; ReplayBundle re-executes that batch
// twice with stepwise dispatch — once clean, once with the
// recorded faults re-injected — and diffs the two register-write
// traces. The first divergent write IS the fault's architectural entry
// point, named by function, block, op, and source line, in the spirit
// of RepTFD's replay comparison.

// ReplayDivergence pinpoints the first divergent register write
// between the reference and the re-injected replay.
type ReplayDivergence struct {
	// Index is the dynamic register-write index (FaultPlan numbering).
	Index uint64 `json:"index"`
	Func  string `json:"func"`
	Block string `json:"block"`
	Line  int32  `json:"line"`
	Op    string `json:"op"`
	// RefValue/GotValue are the clean and corrupted values written.
	RefValue string `json:"ref_value"`
	GotValue string `json:"got_value"`
}

// Site renders the divergence location the way FaultPlan.Where does.
func (d *ReplayDivergence) Site() string {
	return fmt.Sprintf("%s/%s %s", d.Func, d.Block, d.Op)
}

// ReplayReport is the outcome of replaying one flight bundle.
type ReplayReport struct {
	Kind  string `json:"kind"`
	Node  string `json:"node"`
	Trace string `json:"trace,omitempty"`
	// HashMatch confirms the rebuilt program is bit-identical to the
	// one the bundle was captured from; localization claims are only
	// meaningful when it holds.
	HashMatch    bool   `json:"hash_match"`
	RefStatus    string `json:"ref_status"`
	ReplayStatus string `json:"replay_status"`
	// Faults is the armed-plan state after the replay (Injected and
	// Where reflect the re-injection, and must agree with the bundle).
	Faults []obs.FaultRecord `json:"faults,omitempty"`
	// Divergence is the first divergent register write; nil when the
	// replay tracked the reference exactly (e.g. the fault hit dead
	// state).
	Divergence *ReplayDivergence `json:"divergence,omitempty"`
	// Localized reports that the divergence matches an injected fault
	// plan exactly — same dynamic index or same static site.
	Localized bool `json:"localized"`
	// RepliesMatchBundle confirms the faulted replay reproduced the
	// bundle's recorded replies bit-for-bit (only meaningful when the
	// bundle recorded replies).
	RepliesMatchBundle bool `json:"replies_match_bundle"`
	// DivergedWrites counts trace positions where the two runs differ
	// (the corruption's architectural footprint).
	DivergedWrites int `json:"diverged_writes"`
	RefWrites      int `json:"ref_writes"`
	ReplayWrites   int `json:"replay_writes"`
	// Attribution is the profiler's view of the divergent line: which
	// hardening category the instruction belongs to and how much of
	// the function's dynamic weight the line carries.
	Attribution string `json:"attribution,omitempty"`
	// Profile is the reference run's overall category summary.
	Profile obs.ProfileSummary `json:"profile"`
}

// ReplayBundle re-executes a flight bundle's batch deterministically
// and localizes the recorded fault. See the package comment above.
func ReplayBundle(b *obs.FlightBundle) (*ReplayReport, error) {
	if len(b.Requests) == 0 {
		return nil, fmt.Errorf("serve: bundle has no requests to replay")
	}
	words := make([]uint64, len(b.Requests))
	for i, r := range b.Requests {
		w, err := obs.ParseHexWord(r)
		if err != nil {
			return nil, fmt.Errorf("serve: bundle request %d: %v", i, err)
		}
		words[i] = w
	}

	// Rebuild the exact serving program the bundle ran.
	kvcfg := workloads.KVServeConfig{
		MaxBatch:  b.MaxBatch,
		Records:   b.Records,
		ValueWork: b.ValueWork,
	}
	prog := workloads.KVServe(kvcfg)
	hcfg, err := hardenConfigFromBundle(b)
	if err != nil {
		return nil, err
	}
	if hcfg.TxThreshold == 0 {
		hcfg.TxThreshold = prog.TxThreshold
	}
	if hcfg.Blacklist == nil {
		hcfg.Blacklist = prog.Blacklist
	}
	mod, err := core.Harden(prog.Module, hcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: replay harden: %w", err)
	}
	hp := *prog
	hp.Module = mod

	wantHash, err := obs.ParseHexWord(b.ProgramHash)
	if err != nil {
		return nil, fmt.Errorf("serve: bundle program hash: %v", err)
	}
	rep := &ReplayReport{
		Kind:      b.Kind,
		Node:      b.Node,
		Trace:     b.Trace,
		HashMatch: wantHash == 0 || wantHash == hashModule(mod),
	}

	vmcfg := vm.DefaultConfig()
	vmcfg.HTM.Seed = b.HTMSeed
	vmcfg.MaxDynInstrs = b.MaxDynInstrs

	run := func(plans []*vm.FaultPlan, prof *obs.Profiler) ([]vm.TraceEvent, []uint64, vm.Status) {
		m := vm.New(mod, 1, vmcfg)
		var tr []vm.TraceEvent
		m.SetTracer(func(ev vm.TraceEvent) { tr = append(tr, ev) })
		if prof != nil {
			m.SetProfiler(prof)
		}
		if len(plans) > 0 {
			m.SetFaultPlans(plans)
		}
		reqs := m.Mod.Global(workloads.KVReqsGlobal).Addr
		nreq := m.Mod.Global(workloads.KVNReqGlobal).Addr
		replyAddr := m.Mod.Global(workloads.KVRepliesGlobal).Addr
		for i, w := range words {
			m.Poke(reqs+uint64(i)*8, w)
		}
		m.Poke(nreq, uint64(len(words)))
		st := m.Run(hp.SpecsFor(1)...)
		replies := make([]uint64, len(words))
		for i := range words {
			replies[i] = m.Peek(replyAddr + uint64(i)*8)
		}
		return tr, replies, st
	}

	// Reference run: clean, profiled for attribution.
	prof := obs.NewProfiler()
	refTrace, _, refStatus := run(nil, prof)
	rep.RefStatus = refStatus.String()
	rep.Profile = prof.Summary()

	// Faulted run: the bundle's plans re-armed verbatim.
	plans, err := plansFromBundle(b)
	if err != nil {
		return nil, err
	}
	gotTrace, gotReplies, gotStatus := run(plans, nil)
	rep.ReplayStatus = gotStatus.String()
	for _, p := range plans {
		rep.Faults = append(rep.Faults, obs.FaultRecord{
			Model:       p.Model.String(),
			Flow:        p.Flow.String(),
			TargetIndex: p.TargetIndex,
			Mask:        obs.HexWord(p.Mask),
			Injected:    p.Injected,
			Where:       p.Where,
		})
	}

	// Diff the register-write streams: the first divergence is the
	// fault's architectural entry point.
	rep.RefWrites, rep.ReplayWrites = len(refTrace), len(gotTrace)
	n := len(refTrace)
	if len(gotTrace) < n {
		n = len(gotTrace)
	}
	for i := 0; i < n; i++ {
		a, g := &refTrace[i], &gotTrace[i]
		if a.Func == g.Func && a.Block == g.Block && a.Op == g.Op &&
			a.Res == g.Res && a.Value == g.Value {
			continue
		}
		rep.DivergedWrites++
		if rep.Divergence == nil {
			rep.Divergence = &ReplayDivergence{
				Index:    g.Index,
				Func:     g.Func,
				Block:    g.Block,
				Line:     g.Line,
				Op:       g.Op.String(),
				RefValue: obs.HexWord(a.Value),
				GotValue: obs.HexWord(g.Value),
			}
		}
	}
	if len(gotTrace) != len(refTrace) {
		rep.DivergedWrites += rep.RefWrites - rep.ReplayWrites
		if rep.DivergedWrites < 0 {
			rep.DivergedWrites = -rep.DivergedWrites
		}
	}

	// Exact localization: the first divergent write is one of the
	// injected plans' targets (by dynamic index for unfiltered plans,
	// by static site for flow-filtered ones).
	if d := rep.Divergence; d != nil {
		for _, p := range plans {
			if !p.Injected {
				continue
			}
			if p.TargetIndex == d.Index || p.Where == d.Site() {
				rep.Localized = true
			}
		}
		rep.Attribution = attributeLine(prof, d.Func, d.Line)
	}

	// Determinism check: did the replay reproduce the recorded replies?
	if len(b.Replies) == len(gotReplies) && len(b.Replies) > 0 {
		rep.RepliesMatchBundle = true
		for i, r := range b.Replies {
			w, err := obs.ParseHexWord(r)
			if err != nil || w != gotReplies[i] {
				rep.RepliesMatchBundle = false
				break
			}
		}
	}
	return rep, nil
}

// hardenConfigFromBundle reconstructs the hardening configuration a
// bundle's program was built with.
func hardenConfigFromBundle(b *obs.FlightBundle) (core.Config, error) {
	cfg := core.Config{Mode: core.ModeHAFT} // bundles without a mode predate the field
	if b.Mode != "" {
		var err error
		if cfg.Mode, err = core.ParseMode(b.Mode); err != nil {
			return cfg, fmt.Errorf("serve: flight bundle: %w", err)
		}
	}
	for _, o := range core.OptLevels() {
		if o.String() == b.OptLevel {
			cfg.Opt = o
		}
	}
	cfg.TxThreshold = b.TxThreshold
	cfg.Optimize = b.HardenFlags["optimize"]
	cfg.CopyProp = b.HardenFlags["copyprop"]
	cfg.ReduceChecks = b.HardenFlags["rce"]
	cfg.CoalesceChecks = b.HardenFlags["coalesce"]
	cfg.RelaxTX = b.HardenFlags["relax"]
	return cfg, nil
}

// plansFromBundle reconstructs the armed fault plans (Injected/Where
// reset — the replay re-derives them).
func plansFromBundle(b *obs.FlightBundle) ([]*vm.FaultPlan, error) {
	var plans []*vm.FaultPlan
	for i, f := range b.Faults {
		var model vm.FaultModel
		switch f.Model {
		case "reg", "":
			model = vm.FaultRegister
		case "mem":
			model = vm.FaultMemory
		case "branch":
			model = vm.FaultBranch
		case "addr":
			model = vm.FaultAddress
		case "skip":
			model = vm.FaultSkip
		default:
			return nil, fmt.Errorf("serve: bundle fault %d: unknown model %q", i, f.Model)
		}
		var flow vm.FaultFlow
		switch f.Flow {
		case "any", "":
			flow = vm.FlowAny
		case "master":
			flow = vm.FlowMaster
		case "shadow":
			flow = vm.FlowShadow
		case "shadow2":
			flow = vm.FlowShadow2
		default:
			return nil, fmt.Errorf("serve: bundle fault %d: unknown flow %q", i, f.Flow)
		}
		mask, err := obs.ParseHexWord(f.Mask)
		if err != nil {
			return nil, fmt.Errorf("serve: bundle fault %d mask: %v", i, err)
		}
		plans = append(plans, &vm.FaultPlan{
			Model:       model,
			Flow:        flow,
			TargetIndex: f.TargetIndex,
			Mask:        mask,
		})
	}
	return plans, nil
}

// attributeLine renders the profiler's cell for one (function, line):
// the hardening-category weights of the divergent source line.
func attributeLine(p *obs.Profiler, fn string, line int32) string {
	for _, f := range p.Funcs() {
		if f.Name != fn {
			continue
		}
		for _, l := range f.Lines() {
			if l.Line != line {
				continue
			}
			var parts []string
			var total uint64
			for c, n := range l.Counts {
				if n > 0 {
					parts = append(parts, fmt.Sprintf("%s=%d", obs.Category(c), n))
					total += n
				}
			}
			ftot := f.Total()
			pct := 0.0
			if ftot > 0 {
				pct = 100 * float64(total) / float64(ftot)
			}
			return fmt.Sprintf("%s:%d [%s] %.1f%% of %s (%d/%d instrs)",
				fn, line, strings.Join(parts, " "), pct, fn, total, ftot)
		}
	}
	return fmt.Sprintf("%s:%d (no profile attribution)", fn, line)
}

// Render formats the report for the haftobs CLI.
func (r *ReplayReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bundle:    %s/%s", r.Node, r.Kind)
	if r.Trace != "" {
		fmt.Fprintf(&sb, "  trace=%s", r.Trace)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "program:   hash match=%v\n", r.HashMatch)
	fmt.Fprintf(&sb, "status:    ref=%s replay=%s\n", r.RefStatus, r.ReplayStatus)
	for _, f := range r.Faults {
		fmt.Fprintf(&sb, "fault:     %s/%s target=%d mask=%s injected=%v where=%q\n",
			f.Model, f.Flow, f.TargetIndex, f.Mask, f.Injected, f.Where)
	}
	if r.Divergence == nil {
		fmt.Fprintf(&sb, "diverge:   none (replay tracked the reference; %d writes)\n", r.RefWrites)
	} else {
		d := r.Divergence
		fmt.Fprintf(&sb, "diverge:   first at write #%d: %s line %d (%s -> %s)\n",
			d.Index, d.Site(), d.Line, d.RefValue, d.GotValue)
		fmt.Fprintf(&sb, "footprint: %d/%d writes diverged (ref %d, replay %d)\n",
			r.DivergedWrites, r.RefWrites, r.RefWrites, r.ReplayWrites)
		fmt.Fprintf(&sb, "localized: %v (divergence matches the injected site)\n", r.Localized)
		if r.Attribution != "" {
			fmt.Fprintf(&sb, "attribute: %s\n", r.Attribution)
		}
	}
	if len(r.Faults) > 0 {
		fmt.Fprintf(&sb, "replies:   match bundle=%v\n", r.RepliesMatchBundle)
	}
	return sb.String()
}
