// Package scenario is the declarative scenario-matrix harness: the
// coverage combinatorics of the repository — workload × hardening mode
// × fault model × fault flow × execution engine × chaos profile — are
// declared once, as data, and expanded at load time into a concrete
// run matrix that a sharded runner executes and a golden-diffable
// results bundle records.
//
// The shape follows ChromeOS's tast orchestrator: each scenario names
// an owner and contacts, carries attributes for subset selection
// ("smoke", "sweep", ...), declares a per-run timeout, and
// parameterizes itself over axes instead of hand-enumerating runs.
// ZOFI's framing motivates the execution side: fault-injection
// campaigns are first-class, repeatable scenario runs whose outcome
// distributions are pinned by a golden bundle and re-checked by CI.
//
// Expansion validates axis compatibility with the same mode→flow table
// cmd/faultinject uses (fault.ValidateFlowForMode): statically
// impossible combinations — e.g. flow "shadow2" outside TMR — are
// pruned from the cross product, and a declared axis value that
// survives in no run at all is a registration error (a scenario must
// not silently promise coverage it cannot deliver).
package scenario

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Axis names, in canonical (expansion-loop) order.
const (
	AxisWorkload = "workload"
	AxisMode     = "mode"
	AxisModel    = "model"
	AxisFlow     = "flow"
	AxisEngine   = "engine"
	AxisChaos    = "chaos"
)

// AxisNames lists the axes in canonical order.
func AxisNames() []string {
	return []string{AxisWorkload, AxisMode, AxisModel, AxisFlow, AxisEngine, AxisChaos}
}

// Axes is one concrete point of a scenario's parameter space.
type Axes struct {
	// Workload is a benchmark name from the workloads registry (or a
	// harness-defined name like "kvserve" for serving scenarios).
	Workload string `json:"workload"`
	// Mode is the hardening mode: native, ilr, tx, haft, tmr.
	Mode string `json:"mode"`
	// Model is a fault model (reg, mem, branch, addr, skip, double) or
	// "none" for runs without injection.
	Model string `json:"model"`
	// Flow restricts register-indexed models to one redundant data
	// flow: any, master, shadow, shadow2.
	Flow string `json:"flow"`
	// Engine selects the dispatch: "compiled" (vm.NewFromProgram, which
	// lets the scheduled core run ahead while it would be picked again)
	// or "step" (vm.New, one instruction per scheduler turn). Both must
	// produce identical runs.
	Engine string `json:"engine"`
	// Chaos is a serving-layer chaos profile: none, light, heavy.
	Chaos string `json:"chaos"`
}

// Get returns the value of the named axis.
func (a Axes) Get(axis string) (string, error) {
	switch axis {
	case AxisWorkload:
		return a.Workload, nil
	case AxisMode:
		return a.Mode, nil
	case AxisModel:
		return a.Model, nil
	case AxisFlow:
		return a.Flow, nil
	case AxisEngine:
		return a.Engine, nil
	case AxisChaos:
		return a.Chaos, nil
	}
	return "", fmt.Errorf("scenario: unknown axis %q (have %v)", axis, AxisNames())
}

// String renders the axes in canonical order,
// "workload/mode/model/flow/engine/chaos".
func (a Axes) String() string {
	return strings.Join([]string{a.Workload, a.Mode, a.Model, a.Flow, a.Engine, a.Chaos}, "/")
}

// Matrix declares a scenario's parameter space as one value list per
// axis. Empty axis lists default to the single neutral value (model
// "none", flow "any", engine "compiled", chaos "none"); Workloads and
// Modes must be declared explicitly.
type Matrix struct {
	Workloads []string `json:"workloads"`
	Modes     []string `json:"modes"`
	Models    []string `json:"models,omitempty"`
	Flows     []string `json:"flows,omitempty"`
	Engines   []string `json:"engines,omitempty"`
	Chaos     []string `json:"chaos,omitempty"`
}

func (m Matrix) withDefaults() Matrix {
	if len(m.Models) == 0 {
		m.Models = []string{"none"}
	}
	if len(m.Flows) == 0 {
		m.Flows = []string{"any"}
	}
	if len(m.Engines) == 0 {
		m.Engines = []string{"compiled"}
	}
	if len(m.Chaos) == 0 {
		m.Chaos = []string{"none"}
	}
	return m
}

// Kind selects a scenario's executor.
type Kind uint8

const (
	// KindFI runs a fixed-seed fault-injection campaign (or, with
	// model "none", a fault-free health run) against the hardened
	// build selected by the axes.
	KindFI Kind = iota
	// KindServe drives the request-serving layer under the axes' chaos
	// profile and hardening mode; the zero-delivered-corruptions
	// invariant is the pass gate.
	KindServe
	// KindFixture runs a scenario-provided function; used by harness
	// tests (flake classification, skip paths), never by the default
	// registry.
	KindFixture
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindFI:
		return "fi"
	case KindServe:
		return "serve"
	case KindFixture:
		return "fixture"
	}
	return "kind?"
}

// Scenario is one declared entry of the registry: metadata, a run
// matrix, and pass gates. Scenarios are data; the runner owns all
// execution policy (sharding, deadlines, retries, checkpointing).
type Scenario struct {
	// Name identifies the scenario ("group/name" by convention).
	Name string `json:"name"`
	// Desc is a one-line description.
	Desc string `json:"desc"`
	// Owner is the owning rotation or team.
	Owner string `json:"owner"`
	// Contacts are notified on regressions (tast-style; at least one).
	Contacts []string `json:"contacts"`
	// Attrs are selection tags ("smoke", "sweep", "fi", "tmr", ...).
	Attrs []string `json:"attrs"`
	// Timeout is the per-run deadline; a run still executing when it
	// expires is recorded with outcome "timeout".
	Timeout time.Duration `json:"timeout"`
	// Injections is the per-run fault-injection budget (KindFI with a
	// real model; default 12).
	Injections int `json:"injections,omitempty"`
	// Matrix is the parameter space, expanded into runs at load time.
	Matrix Matrix `json:"matrix"`
	// Kind selects the executor.
	Kind Kind `json:"kind"`
	// MaxSDCRuns, if >= 0, fails any run whose campaign observed more
	// than this many silent-data-corruption runs (-1 disables; the
	// counts are still recorded and pinned by the golden bundle).
	MaxSDCRuns int `json:"max_sdc_runs"`
	// Fixture replaces the standard executor for KindFixture: it
	// receives the run and the 0-based attempt number.
	Fixture func(run Run, attempt int) error `json:"-"`
}

// HasAttr reports whether the scenario carries the attribute.
func (s *Scenario) HasAttr(attr string) bool {
	for _, a := range s.Attrs {
		if a == attr {
			return true
		}
	}
	return false
}

// deterministic reports whether the scenario's per-run results are a
// pure function of the run seed (and may therefore be golden-diffed
// field by field). Serving scenarios depend on real time and goroutine
// scheduling; fixtures are assumed nondeterministic.
func (s *Scenario) deterministic() bool { return s.Kind == KindFI }

// Run is one concrete point of the expanded matrix.
type Run struct {
	// Index is the run's position in the expanded, filtered, sharded
	// run list (assigned by the runner's selection).
	Index int
	// Scenario is the declaring scenario.
	Scenario *Scenario
	// Axes is the concrete parameterization.
	Axes Axes
	// Seed is the run's deterministic seed, derived from the harness
	// seed and the run key — independent of sharding, filtering and
	// execution order, so any run reproduces in isolation.
	Seed uint64
}

// Key is the run's stable identity: "scenario:workload/mode/...".
func (r Run) Key() string { return r.Scenario.Name + ":" + r.Axes.String() }

// Registry holds declared scenarios.
type Registry struct {
	scenarios []*Scenario
	byName    map[string]*Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Scenario)}
}

// Scenarios returns the declared scenarios in registration order.
func (r *Registry) Scenarios() []*Scenario { return r.scenarios }

// ByName returns the named scenario.
func (r *Registry) ByName(name string) (*Scenario, error) {
	s, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return s, nil
}

// Register validates and adds a scenario: the name must be unique, the
// metadata complete (owner, contacts, attrs, timeout), every axis
// value known, and the matrix must expand to at least one run with
// every declared axis value surviving compatibility pruning.
func (r *Registry) Register(s *Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: scenario without a name")
	}
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("scenario: duplicate scenario name %q", s.Name)
	}
	if s.Owner == "" || len(s.Contacts) == 0 {
		return fmt.Errorf("scenario %s: owner and at least one contact are required", s.Name)
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("scenario %s: at least one attribute is required", s.Name)
	}
	if s.Timeout <= 0 {
		return fmt.Errorf("scenario %s: a positive per-run timeout is required", s.Name)
	}
	if s.Kind == KindFixture && s.Fixture == nil {
		return fmt.Errorf("scenario %s: fixture scenarios need a Fixture func", s.Name)
	}
	if s.Injections == 0 {
		s.Injections = 12
	}
	if err := r.validateAxes(s); err != nil {
		return err
	}
	runs, err := expand(s)
	if err != nil {
		return err
	}
	if err := checkCoverage(s, runs); err != nil {
		return err
	}
	r.scenarios = append(r.scenarios, s)
	r.byName[s.Name] = s
	return nil
}

// MustRegister is Register for static declarations.
func (r *Registry) MustRegister(s *Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// validateAxes rejects unknown axis values at declaration time.
func (r *Registry) validateAxes(s *Scenario) error {
	m := s.Matrix.withDefaults()
	if len(m.Workloads) == 0 || len(m.Modes) == 0 {
		return fmt.Errorf("scenario %s: workloads and modes must be declared", s.Name)
	}
	for _, w := range m.Workloads {
		if s.Kind == KindFixture || w == "kvserve" {
			continue
		}
		if _, err := workloads.ByName(w); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for _, mode := range m.Modes {
		if _, err := fault.FlowsForMode(mode); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for _, model := range m.Models {
		if model == "none" {
			continue
		}
		if _, err := fault.ParseModel(model); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for _, flow := range m.Flows {
		if _, err := fault.ParseFlow(flow); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for _, e := range m.Engines {
		if e != "compiled" && e != "step" {
			return fmt.Errorf("scenario %s: unknown engine %q (have compiled, step)", s.Name, e)
		}
	}
	for _, c := range m.Chaos {
		if _, err := serve.ChaosProfile(c); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if c != "none" && s.Kind == KindFI {
			return fmt.Errorf("scenario %s: chaos profile %q on a fault-injection scenario (chaos is a serving-layer axis)", s.Name, c)
		}
	}
	if s.Kind == KindServe {
		for _, model := range m.Models {
			if model != "none" {
				return fmt.Errorf("scenario %s: fault model %q on a serving scenario (the SEU campaign is part of the chaos profile)", s.Name, model)
			}
		}
	}
	return nil
}

// compatible reports whether a concrete axis combination is statically
// possible, reusing cmd/faultinject's mode→flow validity table.
func compatible(a Axes) bool {
	if a.Flow != "any" {
		// Flow restrictions only make sense for register-indexed fault
		// models, and only for flows the mode actually builds.
		if a.Model == "none" {
			return false
		}
		f, err := fault.ParseFlow(a.Flow)
		if err != nil {
			return false
		}
		if fault.ValidateFlowForMode(a.Mode, f) != nil {
			return false
		}
	}
	return true
}

// expand enumerates the scenario's matrix in canonical axis order and
// prunes statically impossible combinations.
func expand(s *Scenario) ([]Run, error) {
	m := s.Matrix.withDefaults()
	var runs []Run
	for _, w := range m.Workloads {
		for _, mode := range m.Modes {
			for _, model := range m.Models {
				for _, flow := range m.Flows {
					for _, engine := range m.Engines {
						for _, chaos := range m.Chaos {
							a := Axes{Workload: w, Mode: mode, Model: model,
								Flow: flow, Engine: engine, Chaos: chaos}
							if !compatible(a) {
								continue
							}
							runs = append(runs, Run{Scenario: s, Axes: a})
						}
					}
				}
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("scenario %s: matrix expands to zero compatible runs", s.Name)
	}
	return runs, nil
}

// checkCoverage verifies that every declared axis value survives in at
// least one expanded run: a value pruned everywhere is dead coverage
// the declaration falsely promises.
func checkCoverage(s *Scenario, runs []Run) error {
	m := s.Matrix.withDefaults()
	seen := make(map[string]map[string]bool)
	for _, ax := range AxisNames() {
		seen[ax] = make(map[string]bool)
	}
	for _, r := range runs {
		for _, ax := range AxisNames() {
			v, _ := r.Axes.Get(ax)
			seen[ax][v] = true
		}
	}
	declared := map[string][]string{
		AxisWorkload: m.Workloads, AxisMode: m.Modes, AxisModel: m.Models,
		AxisFlow: m.Flows, AxisEngine: m.Engines, AxisChaos: m.Chaos,
	}
	for _, ax := range AxisNames() {
		for _, v := range declared[ax] {
			if !seen[ax][v] {
				return fmt.Errorf("scenario %s: declared %s %q survives in no compatible run",
					s.Name, ax, v)
			}
		}
	}
	return nil
}

// Expand expands every registered scenario (in registration order)
// into its run list, seeding each run from the harness seed and the
// run's stable key.
func (r *Registry) Expand(seed int64) ([]Run, error) {
	var out []Run
	for _, s := range r.scenarios {
		runs, err := expand(s)
		if err != nil {
			return nil, err
		}
		out = append(out, runs...)
	}
	for i := range out {
		out[i].Seed = runSeed(seed, out[i].Key())
	}
	return out, nil
}

// runSeed derives a run's private seed from (harness seed, run key):
// stable under sharding, filtering and execution order.
func runSeed(seed int64, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return obs.SplitMix64(h.Sum64() ^ obs.SplitMix64(uint64(seed)))
}

// Filter selects runs for one runner invocation.
type Filter struct {
	// Names restricts to the named scenarios (empty: all).
	Names []string
	// Attrs requires every listed attribute on the scenario.
	Attrs []string
	// Axes requires exact axis values on the run (axis name → value).
	Axes map[string]string
}

// String renders the filter canonically (part of a bundle's identity).
func (f Filter) String() string {
	var parts []string
	if len(f.Names) > 0 {
		parts = append(parts, "name="+strings.Join(f.Names, ","))
	}
	if len(f.Attrs) > 0 {
		parts = append(parts, "attr="+strings.Join(f.Attrs, ","))
	}
	if len(f.Axes) > 0 {
		keys := make([]string, 0, len(f.Axes))
		for k := range f.Axes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, k+"="+f.Axes[k])
		}
	}
	return strings.Join(parts, " ")
}

// Match reports whether the run passes the filter.
func (f Filter) Match(r Run) (bool, error) {
	if len(f.Names) > 0 {
		found := false
		for _, n := range f.Names {
			if r.Scenario.Name == n {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	for _, a := range f.Attrs {
		if !r.Scenario.HasAttr(a) {
			return false, nil
		}
	}
	for ax, want := range f.Axes {
		got, err := r.Axes.Get(ax)
		if err != nil {
			return false, err
		}
		if got != want {
			return false, nil
		}
	}
	return true, nil
}

// Select expands the registry, applies the filter, and assigns
// selection-local indices. The order is deterministic: registration
// order, then canonical axis order.
func (r *Registry) Select(seed int64, f Filter) ([]Run, error) {
	all, err := r.Expand(seed)
	if err != nil {
		return nil, err
	}
	var out []Run
	for _, run := range all {
		ok, err := f.Match(run)
		if err != nil {
			return nil, err
		}
		if ok {
			run.Index = len(out)
			out = append(out, run)
		}
	}
	return out, nil
}
