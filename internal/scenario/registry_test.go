package scenario

import (
	"strings"
	"testing"
)

// TestRegistrySelfCheck is the registry's load-time contract: every
// declared scenario expands, run keys are unique across the whole
// matrix, the matrix covers every fault model and redundant mode, and
// every record is set up as a run-ahead target with a stepwise twin.
func TestRegistrySelfCheck(t *testing.T) {
	r := DefaultRegistry()
	runs := r.Select(1, Filter{})
	if len(r.Scenarios()) != 8 || len(runs) != 137 {
		t.Fatalf("registry declares %d scenarios expanding to %d runs, want 8 and 137",
			len(r.Scenarios()), len(runs))
	}
	seen := make(map[string]bool, len(runs))
	models := map[string]bool{}
	modes := map[string]bool{}
	for _, run := range runs {
		k := run.Key()
		if seen[k] {
			t.Errorf("duplicate run key %s", k)
		}
		seen[k] = true
		if run.Seed == 0 {
			t.Errorf("run %s has zero seed", k)
		}
		models[run.Axes.Model] = true
		modes[run.Axes.Mode] = true
		ahead, step, err := targets(run)
		if err != nil {
			t.Fatalf("run %s: %v", k, err)
		}
		if ahead.Interpret || !step.Interpret || ahead.Module == step.Module ||
			ahead.Name != k || step.Name != k {
			t.Errorf("run %s does not run both engines on its own modules", k)
		}
	}
	for _, m := range []string{"reg", "mem", "branch", "addr", "skip", "double"} {
		if !models[m] {
			t.Errorf("no run covers fault model %q", m)
		}
	}
	for _, m := range []string{"ilr", "haft", "tmr"} {
		if !modes[m] {
			t.Errorf("no run covers hardening mode %q", m)
		}
	}
}

// TestRegistryAxisRoundTrip pushes every expanded run through the
// bundle encoder and back: keys, axes and seeds must survive exactly
// (the bundle is the only artifact a diffed matrix sees).
func TestRegistryAxisRoundTrip(t *testing.T) {
	runs := DefaultRegistry().Select(7, Filter{})
	recs := make([]Record, len(runs))
	for i, run := range runs {
		recs[i] = Record{
			Key: run.Key(), Scenario: run.Scenario.Name, Axes: run.Axes,
			Seed: run.Seed, Outcome: OutcomePass,
		}
	}
	b := NewBundle(7, "", recs)
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Record, len(back.Records))
	for _, r := range back.Records {
		byKey[r.Key] = r
	}
	for _, run := range runs {
		r, ok := byKey[run.Key()]
		if !ok {
			t.Fatalf("run %s lost in encode/decode", run.Key())
		}
		if r.Axes != run.Axes {
			t.Errorf("run %s axes changed: %+v -> %+v", run.Key(), run.Axes, r.Axes)
		}
		if r.Seed != run.Seed {
			t.Errorf("run %s seed changed: %d -> %d", run.Key(), run.Seed, r.Seed)
		}
		if r.Key != run.Scenario.Name+":"+r.Axes.String()+keyTail {
			t.Errorf("run key %s does not round-trip through its axes", r.Key)
		}
	}
}

// TestRegistryValidation exercises the declaration-time checks: bad
// metadata, unknown axis values and dead coverage are all registration
// errors.
func TestRegistryValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name: "t/valid", Desc: "d", Attrs: []string{"a"},
			Matrix:     Matrix{Workloads: []string{"histogram"}, Modes: []string{"haft"}},
			MaxSDCRuns: -1,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"missing attrs", func(s *Scenario) { s.Attrs = nil }, "attribute"},
		{"unknown workload", func(s *Scenario) { s.Matrix.Workloads = []string{"nope"} }, "nope"},
		{"unknown mode", func(s *Scenario) { s.Matrix.Modes = []string{"nope"} }, "nope"},
		{"unknown model", func(s *Scenario) { s.Matrix.Models = []string{"nope"} }, "nope"},
		{"unknown flow", func(s *Scenario) { s.Matrix.Flows = []string{"nope"} }, "nope"},
		// shadow2 is tmr-only: declared under ilr it survives in no run.
		{"dead flow coverage", func(s *Scenario) {
			s.Matrix.Modes = []string{"ilr"}
			s.Matrix.Models = []string{"reg"}
			s.Matrix.Flows = []string{"master", "shadow2"}
		}, "survives in no compatible run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Registry{}
			s := base()
			tc.mutate(s)
			err := r.Register(s)
			if err == nil {
				t.Fatalf("registration succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Duplicate names are rejected.
	r := &Registry{}
	if err := r.Register(base()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(base()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate registration: got %v", err)
	}
}

// TestFlowPruning pins the shared mode->flow table's effect on
// expansion: shadow2 survives only under tmr, shadow only under
// redundant modes.
func TestFlowPruning(t *testing.T) {
	r := &Registry{}
	r.MustRegister(&Scenario{
		Name: "t/flows", Desc: "d", Attrs: []string{"a"},
		Matrix: Matrix{
			Workloads: []string{"linearreg"},
			Modes:     []string{"ilr", "haft", "tmr"},
			Models:    []string{"reg"},
			Flows:     []string{"master", "shadow", "shadow2"},
		},
		MaxSDCRuns: -1,
	})
	runs := r.Select(1, Filter{})
	got := map[string]bool{}
	for _, run := range runs {
		got[run.Axes.Mode+"/"+run.Axes.Flow] = true
	}
	want := []string{"ilr/master", "ilr/shadow", "haft/master", "haft/shadow",
		"tmr/master", "tmr/shadow", "tmr/shadow2"}
	if len(runs) != len(want) {
		t.Fatalf("got %d runs, want %d (%v)", len(runs), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("combination %s missing after pruning", w)
		}
	}
	if got["ilr/shadow2"] || got["haft/shadow2"] {
		t.Error("shadow2 survived outside tmr")
	}
}

// TestRunSeedStability pins the seed derivation: a run's seed depends
// only on (harness seed, run key) — not on filtering or position.
func TestRunSeedStability(t *testing.T) {
	r := DefaultRegistry()
	all := r.Select(42, Filter{})
	bySeed := make(map[string]uint64, len(all))
	for _, run := range all {
		bySeed[run.Key()] = run.Seed
	}
	smoke := r.Select(42, Filter{Attrs: []string{"smoke"}})
	if len(smoke) == 0 {
		t.Fatal("smoke subset is empty")
	}
	for _, run := range smoke {
		if run.Seed != bySeed[run.Key()] {
			t.Errorf("run %s: seed changed under filtering (%d vs %d)",
				run.Key(), run.Seed, bySeed[run.Key()])
		}
	}
	other := r.Select(43, Filter{})
	if other[0].Seed == all[0].Seed {
		t.Error("different harness seeds produced the same run seed")
	}
}
