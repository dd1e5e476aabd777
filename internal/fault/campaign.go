// Campaign engine: multi-model fault-injection campaigns with
// statistical confidence.
//
// The paper's framework (§4.2) injects one register bit-flip per run
// and reports raw outcome percentages. This engine generalizes both
// halves, following the methodology of ZOFI (Porpodas) and the
// SEU+SET coverage argument of Azambuja et al.:
//
//   - a family of fault models (register flip, memory-word flip at a
//     live address, branch-direction inversion, address-line fault,
//     instruction skip, double SEU), each targetable at the master or
//     shadow ILR flow;
//   - stratified sampling: injections rotate round-robin across the
//     requested models and across equal segments of the dynamic trace,
//     so early stopping cannot bias coverage toward the trace prefix;
//   - per-run deterministic seeds derived by splitmix64 from the
//     campaign seed and the run index — no shared RNG, so parallel
//     workers are race-free and any run can be reproduced in
//     isolation;
//   - per-outcome 95% (configurable) Wilson confidence intervals with
//     early stopping once every model's widest interval half-width
//     falls under a caller-chosen margin of error;
//   - resumable campaign state: the result serializes to JSON and a
//     resumed campaign continues at the next run index, producing
//     bit-identical results to an uninterrupted one.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/htm"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/vm"
)

// Model names one fault model of the campaign engine. The first five
// map directly onto vm.FaultModel; ModelDouble arms two independent
// register flips in one run (a double SEU).
type Model uint8

// The fault-model family.
const (
	ModelRegister Model = iota
	ModelMemory
	ModelBranch
	ModelAddress
	ModelSkip
	ModelDouble
	numModels
)

// String returns the model's campaign name.
func (m Model) String() string {
	switch m {
	case ModelRegister:
		return "reg"
	case ModelMemory:
		return "mem"
	case ModelBranch:
		return "branch"
	case ModelAddress:
		return "addr"
	case ModelSkip:
		return "skip"
	case ModelDouble:
		return "double"
	}
	return "model?"
}

// MarshalJSON encodes the model as its name.
func (m Model) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON decodes a model name.
func (m *Model) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	p, err := ParseModel(s)
	if err != nil {
		return err
	}
	*m = p
	return nil
}

// AllModels lists every fault model.
func AllModels() []Model {
	return []Model{ModelRegister, ModelMemory, ModelBranch, ModelAddress, ModelSkip, ModelDouble}
}

// ParseModel resolves a model name.
func ParseModel(s string) (Model, error) {
	for _, m := range AllModels() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault model %q (have reg mem branch addr skip double)", s)
}

// ParseModels resolves a comma-separated model list.
func ParseModels(s string) ([]Model, error) {
	var out []Model
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ',' {
			continue
		}
		name := s[start:i]
		start = i + 1
		if name == "" {
			continue
		}
		m, err := ParseModel(name)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault: empty fault-model list")
	}
	return out, nil
}

// ParseFlow resolves a fault-flow name ("any", "master", "shadow",
// "shadow2"; empty selects FlowAny).
func ParseFlow(s string) (vm.FaultFlow, error) {
	switch s {
	case "", "any":
		return vm.FlowAny, nil
	case "master":
		return vm.FlowMaster, nil
	case "shadow":
		return vm.FlowShadow, nil
	case "shadow2":
		return vm.FlowShadow2, nil
	}
	return 0, fmt.Errorf("fault: unknown fault flow %q (have any master shadow shadow2)", s)
}

// minPerModel is the smallest campaign a model must run before its
// confidence intervals may trigger early stopping.
const minPerModel = 25

// CampaignConfig parameterizes RunCampaign.
type CampaignConfig struct {
	// Models is the fault-model mix; injections rotate across it
	// round-robin (stratified sampling across models).
	Models []Model
	// Injections bounds the total number of runs.
	Injections int
	// Seed makes the campaign reproducible: run i derives its private
	// RNG from (Seed, i) via splitmix64.
	Seed int64
	// MOE, if positive, stops the campaign once every model's widest
	// per-outcome confidence-interval half-width is at most MOE (a
	// proportion, e.g. 0.02), with at least minPerModel runs/model.
	MOE float64
	// Confidence is the interval confidence level (default 0.95).
	Confidence float64
	// Batch is the number of runs between early-stop checks and
	// checkpoints (default 64, rounded up to a multiple of
	// len(Models) so strata stay balanced).
	Batch int
	// Segments splits each model's dynamic population into this many
	// equal trace segments sampled round-robin (default 4; 1 restores
	// plain uniform sampling).
	Segments int
	// Flow restricts register-indexed models to the master or shadow
	// ILR flow (default vm.FlowAny).
	Flow vm.FaultFlow
	// Workers is the parallel fan-out (default GOMAXPROCS).
	Workers int
	// Resume continues a previous campaign from its checkpoint; the
	// spec (models, seed, batch, segments, flow) must match.
	Resume *CampaignResult
	// OnCheckpoint, if set, observes the campaign state after every
	// batch (e.g. to persist it).
	OnCheckpoint func(*CampaignResult)
	// Trace, if set, receives observability events: every campaign
	// machine emits its tx/detect/fault events into it (workers get
	// disjoint actor bases) and the fold loop adds one KindCampaignRun
	// event per injection, in deterministic run-index order.
	Trace *obs.Ring
	// Progress, if set, is updated after every batch with the per-model
	// live state (runs, SDC confidence interval, abort-cause histogram)
	// so a debug endpoint can stream campaign progress.
	Progress *obs.Registry
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Segments <= 0 {
		c.Segments = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if n := len(c.Models); n > 0 && c.Batch%n != 0 {
		c.Batch += n - c.Batch%n
	}
	return c
}

// Spec is the deterministic identity of a campaign: two campaigns
// with equal specs and seeds visit identical (model, segment, plan)
// sequences, which is what makes checkpoints resumable.
type Spec struct {
	Models   []Model `json:"models"`
	Seed     int64   `json:"seed"`
	Batch    int     `json:"batch"`
	Segments int     `json:"segments"`
	Flow     uint8   `json:"flow"`
}

func (c CampaignConfig) spec() Spec {
	return Spec{Models: c.Models, Seed: c.Seed, Batch: c.Batch, Segments: c.Segments, Flow: uint8(c.Flow)}
}

func specEqual(a, b Spec) bool {
	if a.Seed != b.Seed || a.Batch != b.Batch || a.Segments != b.Segments || a.Flow != b.Flow ||
		len(a.Models) != len(b.Models) {
		return false
	}
	for i := range a.Models {
		if a.Models[i] != b.Models[i] {
			return false
		}
	}
	return true
}

// ModelResult aggregates one fault model's outcomes within a campaign.
type ModelResult struct {
	Model  Model                 `json:"model"`
	Total  int                   `json:"total"`
	Counts [numOutcomes]int      `json:"counts"`
	Sites  map[string]*SiteStats `json:"sites"`
	// Recovered sums ILR-triggered rollbacks that re-executed
	// successfully across the model's runs.
	Recovered uint64 `json:"recovered"`
	// CorrectedFaults sums TMR majority-vote corrections across the
	// model's runs (zero outside ModeTMR targets).
	CorrectedFaults uint64 `json:"corrected_faults"`
	// HTM aggregates the transactional activity the injections
	// triggered (abort causes, fallbacks).
	HTM htm.Stats `json:"htm"`
}

// Rate returns the percentage of the model's runs with the outcome.
func (m *ModelResult) Rate(o Outcome) float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Counts[o]) / float64(m.Total)
}

// ClassRate returns the percentage of the model's runs in the class.
func (m *ModelResult) ClassRate(c Class) float64 {
	if m.Total == 0 {
		return 0
	}
	n := 0
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.Class() == c {
			n += m.Counts[o]
		}
	}
	return 100 * float64(n) / float64(m.Total)
}

// CI returns the Wilson confidence interval (percent) for the
// outcome's proportion at the given confidence level.
func (m *ModelResult) CI(o Outcome, confidence float64) (lo, hi float64) {
	lo, hi = wilson(m.Counts[o], m.Total, zFor(confidence))
	return 100 * lo, 100 * hi
}

// ClassCI returns the Wilson confidence interval (percent) for the
// class proportion.
func (m *ModelResult) ClassCI(c Class, confidence float64) (lo, hi float64) {
	n := 0
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.Class() == c {
			n += m.Counts[o]
		}
	}
	lo, hi = wilson(n, m.Total, zFor(confidence))
	return 100 * lo, 100 * hi
}

// MOE returns the model's margin of error: the widest per-outcome
// confidence-interval half-width, as a proportion in [0,1].
func (m *ModelResult) MOE(confidence float64) float64 {
	if m.Total == 0 {
		return 1
	}
	z := zFor(confidence)
	worst := 0.0
	for o := Outcome(0); o < numOutcomes; o++ {
		lo, hi := wilson(m.Counts[o], m.Total, z)
		if h := (hi - lo) / 2; h > worst {
			worst = h
		}
	}
	return worst
}

// CampaignResult is the (checkpointable) state and final outcome of a
// multi-model campaign.
type CampaignResult struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
	// NextIndex is the first run index not yet executed; a resumed
	// campaign continues here.
	NextIndex int `json:"next_index"`
	// Stopped reports that the campaign halted early because every
	// model reached the target margin of error.
	Stopped bool `json:"early_stopped"`
	// MOETarget echoes the margin of error the campaign stopped
	// against (0 = fixed-size campaign).
	MOETarget  float64 `json:"moe_target"`
	Confidence float64 `json:"confidence"`
	// PerModel holds one aggregate per configured model, in
	// Spec.Models order.
	PerModel []*ModelResult `json:"models"`
	// Reference-run populations.
	RefRegWrites    uint64 `json:"ref_reg_writes"`
	RefShadowWrites uint64 `json:"ref_shadow_writes"`
	RefMemAccesses  uint64 `json:"ref_mem_accesses"`
	RefCondBranches uint64 `json:"ref_cond_branches"`
	RefCycles       uint64 `json:"ref_cycles"`
	RefDynInstrs    uint64 `json:"ref_dyn_instrs"`
}

// Total returns the number of executed runs across all models.
func (r *CampaignResult) Total() int {
	n := 0
	for _, m := range r.PerModel {
		n += m.Total
	}
	return n
}

// ModelResultFor returns the aggregate for one model (nil if the
// campaign did not run it).
func (r *CampaignResult) ModelResultFor(m Model) *ModelResult {
	for _, mr := range r.PerModel {
		if mr.Model == m {
			return mr
		}
	}
	return nil
}

// MOE returns the campaign-wide margin of error: the worst model MOE.
func (r *CampaignResult) MOE() float64 {
	worst := 0.0
	for _, m := range r.PerModel {
		if v := m.MOE(r.Confidence); v > worst {
			worst = v
		}
	}
	return worst
}

// WorstSDC returns the model with the highest silent-corruption class
// rate and that rate in percent.
func (r *CampaignResult) WorstSDC() (Model, float64) {
	var worstM Model
	worst := -1.0
	for _, m := range r.PerModel {
		if v := m.ClassRate(ClassCorrupted); v > worst {
			worst, worstM = v, m.Model
		}
	}
	if worst < 0 {
		worst = 0
	}
	return worstM, worst
}

// Checkpoint serializes the campaign state to JSON.
func (r *CampaignResult) Checkpoint() ([]byte, error) {
	return json.MarshalIndent(r, "", " ")
}

// LoadCheckpoint restores a campaign state serialized by Checkpoint.
func LoadCheckpoint(b []byte) (*CampaignResult, error) {
	var r CampaignResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("fault: bad campaign checkpoint: %w", err)
	}
	return &r, nil
}

// runRNG returns run i's private RNG: independent per-run seeds derived
// from (campaign seed, run index).
func runRNG(seed int64, i int) *rand.Rand {
	s := obs.SplitMix64(obs.SplitMix64(uint64(seed)) + uint64(i))
	return rand.New(rand.NewSource(int64(s & math.MaxInt64)))
}

// segmentDraw draws a uniform index within segment seg of nseg over
// population pop.
func segmentDraw(rng *rand.Rand, pop uint64, seg, nseg int) uint64 {
	if nseg <= 1 || pop < uint64(nseg) {
		return uint64(rng.Int63n(int64(pop)))
	}
	segLen := pop / uint64(nseg)
	start := uint64(seg) * segLen
	length := segLen
	if seg == nseg-1 {
		length = pop - start // last segment absorbs the remainder
	}
	return start + uint64(rng.Int63n(int64(length)))
}

// population returns the dynamic-event population a model draws
// injection targets from.
func population(m Model, flow vm.FaultFlow, st vm.RunStats) uint64 {
	switch m {
	case ModelRegister, ModelSkip, ModelDouble:
		switch flow {
		case vm.FlowShadow:
			return st.ShadowRegWrites - st.Shadow2RegWrites
		case vm.FlowShadow2:
			return st.Shadow2RegWrites
		case vm.FlowMaster:
			return st.RegWrites - st.ShadowRegWrites
		}
		return st.RegWrites
	case ModelMemory, ModelAddress:
		return st.MemAccesses
	case ModelBranch:
		return st.CondBranches
	}
	return 0
}

// vmModel maps a campaign model to its machine-level fault model.
func vmModel(m Model) vm.FaultModel {
	switch m {
	case ModelMemory:
		return vm.FaultMemory
	case ModelBranch:
		return vm.FaultBranch
	case ModelAddress:
		return vm.FaultAddress
	case ModelSkip:
		return vm.FaultSkip
	}
	return vm.FaultRegister
}

// plansFor draws run i's injection plan(s).
func plansFor(m Model, flow vm.FaultFlow, rng *rand.Rand, pop uint64, seg, nseg int) []*vm.FaultPlan {
	first := &vm.FaultPlan{
		Model:       vmModel(m),
		TargetIndex: segmentDraw(rng, pop, seg, nseg),
		Mask:        randMask(rng),
		Flow:        flow,
	}
	if m != ModelDouble {
		return []*vm.FaultPlan{first}
	}
	// Double SEU: a second, independent register flip anywhere in the
	// trace.
	second := &vm.FaultPlan{
		Model:       vm.FaultRegister,
		TargetIndex: uint64(rng.Int63n(int64(pop))),
		Mask:        randMask(rng),
		Flow:        flow,
	}
	return []*vm.FaultPlan{first, second}
}

// runRecord is the fold input of one injection run.
type runRecord struct {
	outcome   Outcome
	site      string
	recovered uint64
	corrected uint64
	htm       htm.Stats
}

// RunCampaign executes a multi-model fault-injection campaign against
// the target. See the package comment of this file for the protocol.
func RunCampaign(t *Target, cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("fault: campaign needs at least one fault model")
	}
	if cfg.Injections <= 0 {
		return nil, fmt.Errorf("fault: campaign needs a positive injection budget")
	}

	// Reference run: correct output plus the model populations.
	ref := t.newMachine()
	ref.Run(t.Specs...)
	if ref.Status() != vm.StatusOK {
		return nil, fmt.Errorf("fault: reference run of %s failed: %v (%s)",
			t.Name, ref.Status(), ref.Stats().CrashReason)
	}
	refOut := append([]uint64(nil), ref.Output()...)
	refStats := ref.Stats()
	budget := refStats.DynInstrs*10 + 100_000

	pops := make(map[Model]uint64, len(cfg.Models))
	for _, m := range cfg.Models {
		pop := population(m, cfg.Flow, refStats)
		if pop == 0 {
			return nil, fmt.Errorf("fault: %s has an empty %s/%s injection population",
				t.Name, m, cfg.Flow)
		}
		pops[m] = pop
	}

	res := cfg.Resume
	if res != nil {
		if !specEqual(res.Spec, cfg.spec()) {
			return nil, fmt.Errorf("fault: checkpoint spec does not match the campaign configuration")
		}
		if len(res.PerModel) != len(cfg.Models) {
			return nil, fmt.Errorf("fault: checkpoint model set does not match")
		}
	} else {
		res = &CampaignResult{
			Name:            t.Name,
			Spec:            cfg.spec(),
			MOETarget:       cfg.MOE,
			Confidence:      cfg.Confidence,
			RefRegWrites:    refStats.RegWrites,
			RefShadowWrites: refStats.ShadowRegWrites,
			RefMemAccesses:  refStats.MemAccesses,
			RefCondBranches: refStats.CondBranches,
			RefCycles:       refStats.Cycles,
			RefDynInstrs:    refStats.DynInstrs,
		}
		for _, m := range cfg.Models {
			res.PerModel = append(res.PerModel, &ModelResult{
				Model: m,
				Sites: make(map[string]*SiteStats),
			})
		}
	}
	res.MOETarget = cfg.MOE
	res.Confidence = cfg.Confidence

	nm := len(cfg.Models)
	for res.NextIndex < cfg.Injections && !res.Stopped {
		end := res.NextIndex + cfg.Batch
		if end > cfg.Injections {
			end = cfg.Injections
		}
		records := make([]runRecord, end-res.NextIndex)
		var wg sync.WaitGroup
		next := make(chan int)
		workers := cfg.Workers
		if workers > len(records) {
			workers = len(records)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range next {
					model := cfg.Models[i%nm]
					seg := (i / nm) % cfg.Segments
					rng := runRNG(cfg.Seed, i)
					plans := plansFor(model, cfg.Flow, rng, pops[model], seg, cfg.Segments)
					mach := t.newMachine()
					mach.Cfg.MaxDynInstrs = budget
					if cfg.Trace != nil {
						// Disjoint actor base per worker: the ring is shared
						// and a run's core ids would otherwise collide.
						mach.SetObsRing(cfg.Trace)
						mach.SetObsActorBase(int32(w+1) * 64)
					}
					mach.SetFaultPlans(plans)
					mach.Run(t.Specs...)
					rec := runRecord{
						outcome:   Classify(mach, refOut),
						recovered: mach.Stats().Recovered,
						corrected: mach.Stats().CorrectedFaults,
						htm:       mach.HTM.Stats,
					}
					for _, p := range plans {
						if p.Injected {
							rec.site = p.Where
							break
						}
					}
					records[i-res.NextIndex] = rec
				}
			}(w)
		}
		for i := res.NextIndex; i < end; i++ {
			next <- i
		}
		close(next)
		wg.Wait()

		// Fold in index order: deterministic regardless of workers.
		for i := res.NextIndex; i < end; i++ {
			rec := records[i-res.NextIndex]
			mr := res.PerModel[i%nm]
			mr.Total++
			mr.Counts[rec.outcome]++
			mr.Recovered += rec.recovered
			mr.CorrectedFaults += rec.corrected
			mr.HTM.Merge(rec.htm)
			if rec.site != "" {
				s := mr.Sites[rec.site]
				if s == nil {
					s = &SiteStats{Site: rec.site}
					mr.Sites[rec.site] = s
				}
				s.Total++
				s.Counts[rec.outcome]++
			}
			if cfg.Trace != nil {
				// Wall-domain run marker, folded in index order so the
				// trace is deterministic regardless of worker scheduling.
				cfg.Trace.Emit(obs.Event{
					Kind: obs.KindCampaignRun, Domain: obs.DomainWall,
					Actor: int32(i % nm), Time: cfg.Trace.Now(),
					A: uint64(i), B: uint64(rec.outcome),
					Label: mr.Model.String() + "/" + rec.outcome.String(),
				})
			}
		}
		res.NextIndex = end

		if cfg.MOE > 0 {
			converged := true
			for _, mr := range res.PerModel {
				if mr.Total < minPerModel || mr.MOE(cfg.Confidence) > cfg.MOE {
					converged = false
					break
				}
			}
			res.Stopped = converged
		}
		if cfg.Progress != nil {
			PublishProgress(cfg.Progress, res)
		}
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(res)
		}
	}
	return res, nil
}

// CampaignTable renders campaigns as the per-model vulnerability table
// (class rates with confidence intervals, recovery work, margin of
// error).
func CampaignTable(results ...*CampaignResult) *report.Table {
	t := &report.Table{
		Title: "fault models: outcome classes with confidence intervals",
		Header: []string{"program", "model", "runs", "crashed%", "correct%",
			"corrupted% [CI]", "SDC% [CI]", "corrected%", "moe"},
	}
	for _, r := range results {
		conf := r.Confidence
		if conf == 0 {
			conf = 0.95
		}
		for _, m := range r.PerModel {
			sdcLo, sdcHi := m.CI(OutcomeSDC, conf)
			corLo, corHi := m.ClassCI(ClassCorrupted, conf)
			t.AddF(1, r.Name, m.Model.String(), m.Total,
				m.ClassRate(ClassCrashed),
				m.ClassRate(ClassCorrect),
				report.FormatCI(m.ClassRate(ClassCorrupted), corLo, corHi, 1),
				report.FormatCI(m.Rate(OutcomeSDC), sdcLo, sdcHi, 1),
				m.Rate(OutcomeHAFTCorrected),
				fmt.Sprintf("%.3f", m.MOE(conf)))
		}
	}
	return t
}

// wilson returns the Wilson score interval for k successes in n
// trials at critical value z, as proportions in [0,1].
func wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	den := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / den
	half := z / den * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// zFor returns the two-sided critical value of the standard normal
// for the given confidence level (e.g. 0.95 -> 1.96), via Acklam's
// inverse-CDF approximation (relative error < 1.2e-9).
func zFor(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		return 1.959963984540054
	}
	return invNorm(0.5 + confidence/2)
}

// invNorm is Acklam's rational approximation to the standard normal
// quantile function.
func invNorm(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
