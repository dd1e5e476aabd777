// Package scenario is the repository's fault-injection coverage matrix:
// workload × hardening mode × fault model × fault flow, declared once
// as data and expanded into seeded campaigns whose results a golden
// bundle pins. ZOFI's framing: a campaign is a repeatable seeded run,
// so one harness seed reproduces every record.
//
// Every record is also a differential. Its campaign (or, with model
// "none", its fault-free health run) runs on a run-ahead target
// (vm.NewFromProgram) and on a stepwise twin (fault.Target.Interpret)
// with the same seed, and the record fails unless the two agree.
//
// Expansion prunes statically impossible combinations with the
// mode→flow table cmd/faultinject uses (fault.ValidateFlowForMode);
// a declared axis value that survives in no run is a registration
// error, because the scenario would promise coverage it cannot deliver.
package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Axes is one concrete point of a scenario's parameter space: a
// workload from the workloads registry, a hardening mode (native, ilr,
// tx, haft, tmr), a fault model (reg, mem, branch, addr, skip, double,
// or "none" for a fault-free health run) and the redundant data flow a
// register-indexed model is restricted to (any, master, shadow, shadow2).
type Axes struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Model    string `json:"model"`
	Flow     string `json:"flow"`
}

// String renders the axes as "workload/mode/model/flow".
func (a Axes) String() string {
	return strings.Join([]string{a.Workload, a.Mode, a.Model, a.Flow}, "/")
}

// Matrix declares a scenario's parameter space as one value list per
// axis. Empty Models and Flows default to "none" and "any"; Workloads
// and Modes must be declared.
type Matrix struct {
	Workloads, Modes, Models, Flows []string
}

func (m Matrix) withDefaults() Matrix {
	if len(m.Models) == 0 {
		m.Models = []string{"none"}
	}
	if len(m.Flows) == 0 {
		m.Flows = []string{"any"}
	}
	return m
}

// Scenario is one declared entry of the registry.
type Scenario struct {
	// Name identifies the scenario ("group/name" by convention).
	Name string
	// Desc is a one-line description.
	Desc string
	// Attrs are selection tags ("smoke", "sweep", "fi", "tmr", ...).
	Attrs []string
	// Injections is the per-record campaign budget (default 12).
	Injections int
	// Matrix is the parameter space, expanded into runs at load time.
	Matrix Matrix
	// MaxSDCRuns, if >= 0, fails any record whose campaign observed
	// more SDC runs (-1 disables; the golden pins the counts anyway).
	MaxSDCRuns int
}

// Run is one concrete point of the expanded matrix.
type Run struct {
	Scenario *Scenario
	Axes     Axes
	// Seed derives from the harness seed and the run key alone, so any
	// run reproduces in isolation.
	Seed uint64
}

// keyTail ends every key where the retired engine and chaos axes
// stood: the seed hashes the key, and the goldens pin the seeds.
const keyTail = "/compiled/none"

// Key is the run's stable identity, "scenario:workload/mode/model/flow"
// plus keyTail.
func (r Run) Key() string { return r.Scenario.Name + ":" + r.Axes.String() + keyTail }

// Registry holds declared scenarios; the zero value is empty.
type Registry struct {
	scenarios []*Scenario
}

// Scenarios returns the declared scenarios in registration order.
func (r *Registry) Scenarios() []*Scenario { return r.scenarios }

// Register validates and adds a scenario: the name must be unique, at
// least one attribute set, every axis value known, and every declared
// value must survive compatibility pruning in some run.
func (r *Registry) Register(s *Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: scenario without a name")
	}
	for _, o := range r.scenarios {
		if o.Name == s.Name {
			return fmt.Errorf("scenario: duplicate scenario name %q", s.Name)
		}
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("scenario %s: at least one attribute is required", s.Name)
	}
	if s.Injections == 0 {
		s.Injections = 12
	}
	type axis struct {
		name     string
		declared []string
		valid    func(string) error
		get      func(Axes) string
	}
	m := s.Matrix.withDefaults()
	axes := []axis{
		{"workload", m.Workloads, func(v string) error { _, err := workloads.ByName(v); return err },
			func(a Axes) string { return a.Workload }},
		{"mode", m.Modes, func(v string) error { _, err := fault.FlowsForMode(v); return err },
			func(a Axes) string { return a.Mode }},
		{"model", m.Models, func(v string) error {
			if v == "none" {
				return nil
			}
			_, err := fault.ParseModel(v)
			return err
		}, func(a Axes) string { return a.Model }},
		{"flow", m.Flows, func(v string) error { _, err := fault.ParseFlow(v); return err },
			func(a Axes) string { return a.Flow }},
	}
	for _, ax := range axes {
		if len(ax.declared) == 0 {
			return fmt.Errorf("scenario %s: no %s declared", s.Name, ax.name)
		}
		for _, v := range ax.declared {
			if err := ax.valid(v); err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}
	// Every value is known; now each must also survive pruning.
	runs := expand(s)
	for _, ax := range axes {
		seen := map[string]bool{}
		for _, r := range runs {
			seen[ax.get(r.Axes)] = true
		}
		for _, v := range ax.declared {
			if !seen[v] {
				return fmt.Errorf("scenario %s: declared %s %q survives in no compatible run",
					s.Name, ax.name, v)
			}
		}
	}
	r.scenarios = append(r.scenarios, s)
	return nil
}

// MustRegister is Register for static declarations.
func (r *Registry) MustRegister(s *Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// compatible reports whether a concrete axis combination is statically
// possible: a flow restriction needs a fault model and a flow the mode
// builds.
func compatible(a Axes) bool {
	if a.Flow == "any" {
		return true
	}
	f, err := fault.ParseFlow(a.Flow)
	return a.Model != "none" && err == nil && fault.ValidateFlowForMode(a.Mode, f) == nil
}

// expand enumerates the scenario's matrix in axis order and prunes
// statically impossible combinations.
func expand(s *Scenario) []Run {
	m := s.Matrix.withDefaults()
	var runs []Run
	for _, w := range m.Workloads {
		for _, mode := range m.Modes {
			for _, model := range m.Models {
				for _, flow := range m.Flows {
					a := Axes{Workload: w, Mode: mode, Model: model, Flow: flow}
					if compatible(a) {
						runs = append(runs, Run{Scenario: s, Axes: a})
					}
				}
			}
		}
	}
	return runs
}

// runSeed derives a run's private seed from (harness seed, run key).
func runSeed(seed int64, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return obs.SplitMix64(h.Sum64() ^ obs.SplitMix64(uint64(seed)))
}

// Filter selects runs for one invocation.
type Filter struct {
	// Names restricts to the named scenarios (empty: all).
	Names []string
	// Attrs requires every listed attribute on the scenario.
	Attrs []string
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
	return strings.Join(parts, " ")
}

// Match reports whether the scenario passes the filter.
func (f Filter) Match(s *Scenario) bool {
	for _, a := range f.Attrs {
		if !slices.Contains(s.Attrs, a) {
			return false
		}
	}
	return len(f.Names) == 0 || slices.Contains(f.Names, s.Name)
}

// Select expands the registry's scenarios that pass the filter, in
// registration order and then axis order, and seeds every run.
func (r *Registry) Select(seed int64, f Filter) []Run {
	var out []Run
	for _, s := range r.scenarios {
		if f.Match(s) {
			out = append(out, expand(s)...)
		}
	}
	for i := range out {
		out[i].Seed = runSeed(seed, out[i].Key())
	}
	return out
}
