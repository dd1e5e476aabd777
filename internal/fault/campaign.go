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
//     bit-identical results to an uninterrupted one;
//   - fast-forward injection: the reference run is snapshotted at equal
//     instruction-count boundaries, every injection starts on a reused
//     machine at the last snapshot before its fault site, and a run
//     whose state has become equal to the reference's again at a later
//     boundary ends there as Masked (DESIGN.md "Fast-forward
//     injection").
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
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

	// Fast-forward accounting of the runs this process executed, folded
	// in run-index order (PublishProgress exports them; they are not
	// part of the checkpoint): reference-run instructions not executed,
	// instructions executed, runs ended early as Masked.
	skippedInstrs, executedInstrs, earlyMasked uint64
	// The reference run's snapshots this process took: how many, their
	// distance in dynamic instructions, and the memory they hold.
	refSnapshots, refStride uint64
	refSnapshotBytes        vm.SnapshotBytes
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
	if err := r.check(); err != nil {
		return nil, err
	}
	return &r, nil
}

// check reports what makes a campaign state unfit to resume: a resumed
// campaign folds run i into PerModel[i%len(Models)] and continues at
// NextIndex, so it needs one result per model, in Spec.Models order and
// with its site table, and counts that add up to the runs before
// NextIndex.
func (r *CampaignResult) check() error {
	nm := len(r.Spec.Models)
	switch {
	case nm == 0:
		return fmt.Errorf("fault: bad campaign checkpoint: no fault models")
	case r.NextIndex < 0:
		return fmt.Errorf("fault: bad campaign checkpoint: next_index %d", r.NextIndex)
	case len(r.PerModel) != nm:
		return fmt.Errorf("fault: bad campaign checkpoint: %d model results for %d models", len(r.PerModel), nm)
	}
	for i, mr := range r.PerModel {
		if mr == nil || mr.Model != r.Spec.Models[i] || mr.Sites == nil {
			return fmt.Errorf("fault: bad campaign checkpoint: model result %d is not a %s result with sites",
				i, r.Spec.Models[i])
		}
		n := 0
		for _, k := range mr.Counts {
			if k < 0 {
				return fmt.Errorf("fault: bad campaign checkpoint: %s has a negative outcome count", mr.Model)
			}
			n += k
		}
		// Runs 0..NextIndex-1 rotate over the models.
		if want := (r.NextIndex - i + nm - 1) / nm; mr.Total != n || mr.Total != want {
			return fmt.Errorf("fault: bad campaign checkpoint: %s has total %d and outcome counts summing to %d; %d runs give it %d",
				mr.Model, mr.Total, n, r.NextIndex, want)
		}
	}
	return nil
}

// runSeed returns the seed of run i's private RNG: independent per-run
// streams derived from (campaign seed, run index).
func runSeed(seed int64, i int) int64 {
	s := obs.SplitMix64(obs.SplitMix64(uint64(seed)) + uint64(i))
	return int64(s & math.MaxInt64)
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
	// Fast-forward accounting: the reference-run instructions the run
	// did not have to execute, the instructions it did execute, and
	// whether it ended early by re-converging with the reference.
	skipped, executed uint64
	early             bool
}

// Fast-forward limits. They are constants, not configuration: a
// campaign's results do not depend on them, only the time it takes.
const (
	// maxSnapshots bounds the reference-run snapshots a campaign keeps,
	// maxSnapshotBytes the memory they hold.
	maxSnapshots     = 64
	maxSnapshotBytes = 64 << 20
	// firstStride is the initial distance between snapshots in dynamic
	// instructions; it doubles whenever a bound is reached.
	firstStride = 8192
)

// reference is a campaign's fault-free run: what it produced, and the
// machine snapshots taken along it. snaps[k] is the state where the run
// paused at k*stride dynamic instructions (snaps[0]: before the first).
type reference struct {
	out   []uint64
	stats vm.RunStats
	// rec is the record of a run that has become indistinguishable from
	// the reference: its outcome (Masked) and transactional activity.
	rec    runRecord
	stride uint64
	snaps  []*vm.Snapshot
	// bytes is the memory the snapshots hold, each block array they share
	// counted once.
	bytes vm.SnapshotBytes
}

// runReference takes the target's fault-free run on mach in equal
// steps with a snapshot at every pause. The length of the run is not
// known in advance, so the steps start small, and whenever a bound is
// reached every other snapshot is dropped and the step doubles.
func runReference(t *Target, mach *vm.Machine) (*reference, error) {
	mach.Start(t.Specs...)
	ref := &reference{stride: firstStride, snaps: []*vm.Snapshot{mach.Snapshot()}}
	ref.bytes = ref.snaps[0].Bytes(nil)
	for !mach.RunUntil(uint64(len(ref.snaps)) * ref.stride) {
		s := mach.Snapshot()
		ref.bytes = ref.bytes.Plus(s.Bytes(ref.snaps[len(ref.snaps)-1]))
		ref.snaps = append(ref.snaps, s)
		for len(ref.snaps) > 1 && (len(ref.snaps) > maxSnapshots || ref.bytes.Total() > maxSnapshotBytes) {
			kept := ref.snaps[:0]
			for k := 0; k < len(ref.snaps); k += 2 {
				kept = append(kept, ref.snaps[k])
			}
			clear(ref.snaps[len(kept):])
			ref.snaps, ref.stride = kept, 2*ref.stride
			ref.bytes = chainBytes(ref.snaps)
		}
	}
	if mach.Status() != vm.StatusOK {
		return nil, fmt.Errorf("fault: reference run of %s failed: %v (%s)",
			t.Name, mach.Status(), mach.Stats().CrashReason)
	}
	ref.out = append([]uint64(nil), mach.Output()...)
	ref.stats = mach.Stats()
	ref.rec = finishedRecord(mach, ref.out)
	return ref, nil
}

// chainBytes is the memory snapshots of one machine hold together, given
// in the order it took them: a block array several of them share counts
// once, also when the snapshot that first copied it is not among them.
func chainBytes(snaps []*vm.Snapshot) vm.SnapshotBytes {
	var n vm.SnapshotBytes
	var prev *vm.Snapshot
	for _, s := range snaps {
		n = n.Plus(s.Bytes(prev))
		prev = s
	}
	return n
}

// finishedRecord classifies a run that executed to its end.
func finishedRecord(mach *vm.Machine, refOut []uint64) runRecord {
	return runRecord{
		outcome:   Classify(mach, refOut),
		recovered: mach.Stats().Recovered,
		corrected: mach.Stats().CorrectedFaults,
		htm:       mach.HTM.Stats,
	}
}

// injector is the state RunCampaign's runs share: the reference run
// and the per-worker machines, each reused for every run of its worker.
type injector struct {
	t    *Target
	cfg  CampaignConfig
	ref  *reference
	pops map[Model]uint64
	// budget is the instruction budget past which a run counts as hung.
	budget  uint64
	workers []*worker
}

// worker is what one campaign worker keeps across its runs.
type worker struct {
	mach *vm.Machine
	rng  *rand.Rand // reseeded per run
}

// newInjector validates the configuration and takes the reference run:
// correct output, model populations, snapshots.
func newInjector(t *Target, cfg CampaignConfig) (*injector, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("fault: campaign needs at least one fault model")
	}
	if cfg.Injections <= 0 {
		return nil, fmt.Errorf("fault: campaign needs a positive injection budget")
	}
	mach := t.newMachine()
	ref, err := runReference(t, mach)
	if err != nil {
		return nil, err
	}
	c := &injector{
		t: t, cfg: cfg, ref: ref,
		pops:    make(map[Model]uint64, len(cfg.Models)),
		budget:  ref.stats.DynInstrs*10 + 100_000,
		workers: make([]*worker, cfg.Workers),
	}
	for _, m := range cfg.Models {
		pop := population(m, cfg.Flow, ref.stats)
		if pop == 0 {
			return nil, fmt.Errorf("fault: %s has an empty %s/%s injection population",
				t.Name, m, cfg.Flow)
		}
		c.pops[m] = pop
	}
	c.worker(0, mach) // the reference machine serves the first worker
	return c, nil
}

// worker returns worker w's state, building it around mach (or a new
// machine when mach is nil) on first use.
func (c *injector) worker(w int, mach *vm.Machine) *worker {
	if c.workers[w] == nil {
		if mach == nil {
			mach = c.t.newMachine()
		}
		mach.Cfg.MaxDynInstrs = c.budget
		if c.cfg.Trace != nil {
			// Disjoint actor base per worker: the ring is shared and a
			// run's core ids would otherwise collide.
			mach.SetObsRing(c.cfg.Trace)
			mach.SetObsActorBase(int32(w+1) * 64)
		}
		c.workers[w] = &worker{mach: mach, rng: rand.New(rand.NewSource(0))}
	}
	return c.workers[w]
}

// inject executes run i on the worker's machine and classifies it. The
// run starts at the last reference snapshot its first fault still lies
// ahead of, and once all its faults have fired it is compared with the
// reference at every later snapshot boundary: when the two are equal the
// rest of the run is the rest of the reference run, so it ends there
// with the reference's record. A traced campaign starts every run at
// snapshot 0 and ends none early, so its ring sees whole runs.
func (c *injector) inject(w *worker, i int) runRecord {
	cfg, ref, mach := &c.cfg, c.ref, w.mach
	model := cfg.Models[i%len(cfg.Models)]
	seg := (i / len(cfg.Models)) % cfg.Segments
	w.rng.Seed(runSeed(cfg.Seed, i))
	plans := plansFor(model, cfg.Flow, w.rng, c.pops[model], seg, cfg.Segments)

	fast := cfg.Trace == nil
	k := 0
	if fast {
		first := plans[0].TargetIndex
		for _, p := range plans[1:] {
			first = min(first, p.TargetIndex)
		}
		k = sort.Search(len(ref.snaps), func(j int) bool {
			return population(model, cfg.Flow, ref.snaps[j].Stats()) > first
		}) - 1
	}
	mach.Restore(ref.snaps[k])
	mach.SetFaultPlans(plans)
	start := mach.Stats().DynInstrs

	early := false
	for k++; ; k++ {
		pause := uint64(math.MaxUint64)
		if k < len(ref.snaps) {
			pause = uint64(k) * ref.stride
		}
		if mach.RunUntil(pause) {
			break
		}
		if fast && mach.PendingFaults() == 0 && mach.Equal(ref.snaps[k]) {
			early = true
			break
		}
	}

	var rec runRecord
	if early {
		rec = ref.rec
		rec.early = true
		rec.skipped = start + ref.stats.DynInstrs - mach.Stats().DynInstrs
	} else {
		rec = finishedRecord(mach, ref.out)
		rec.skipped = start
	}
	rec.executed = mach.Stats().DynInstrs - start
	for _, p := range plans {
		if p.Injected {
			rec.site = p.Where
			break
		}
	}
	return rec
}

// sameReference reports how the reference run a checkpoint was taken
// against differs from this campaign's: a checkpoint of another target
// or VM configuration must not be continued.
func (c *injector) sameReference(res *CampaignResult) error {
	if res.Name != c.t.Name {
		return fmt.Errorf("fault: checkpoint is of campaign %q, not %q", res.Name, c.t.Name)
	}
	st := c.ref.stats
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"ref_reg_writes", res.RefRegWrites, st.RegWrites},
		{"ref_shadow_writes", res.RefShadowWrites, st.ShadowRegWrites},
		{"ref_mem_accesses", res.RefMemAccesses, st.MemAccesses},
		{"ref_cond_branches", res.RefCondBranches, st.CondBranches},
		{"ref_cycles", res.RefCycles, st.Cycles},
		{"ref_dyn_instrs", res.RefDynInstrs, st.DynInstrs},
	} {
		if f.got != f.want {
			return fmt.Errorf("fault: checkpoint of %s was taken against another reference run: %s is %d, this run's is %d",
				res.Name, f.name, f.got, f.want)
		}
	}
	return nil
}

// RunCampaign executes a multi-model fault-injection campaign against
// the target. See the package comment of this file for the protocol.
func RunCampaign(t *Target, cfg CampaignConfig) (*CampaignResult, error) {
	c, err := newInjector(t, cfg)
	if err != nil {
		return nil, err
	}
	cfg = c.cfg
	refStats := c.ref.stats

	res := cfg.Resume
	if res != nil {
		if !specEqual(res.Spec, cfg.spec()) {
			return nil, fmt.Errorf("fault: checkpoint spec does not match the campaign configuration")
		}
		if err := res.check(); err != nil {
			return nil, err
		}
		if err := c.sameReference(res); err != nil {
			return nil, err
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
	res.refSnapshots, res.refStride, res.refSnapshotBytes = uint64(len(c.ref.snaps)), c.ref.stride, c.ref.bytes

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
				wk := c.worker(w, nil)
				for i := range next {
					records[i-res.NextIndex] = c.inject(wk, i)
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
			res.skippedInstrs += rec.skipped
			res.executedInstrs += rec.executed
			if rec.early {
				res.earlyMasked++
			}
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
