package main

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestGoldenLoads(t *testing.T) {
	g, err := loadGolden(fiGoldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != 1 || g.Injections != fiInjections {
		t.Errorf("golden is for seed %d, %d injections; the workload runs seed 1, %d", g.Seed, g.Injections, fiInjections)
	}
	for _, target := range fiPrograms {
		models := g.Counts[target]
		if len(models) != len(fault.AllModels()) {
			t.Errorf("%s: %d fault models, want %d", target, len(models), len(fault.AllModels()))
		}
		total := 0
		for _, m := range fault.AllModels() {
			for _, n := range models[m.String()] {
				total += n
			}
		}
		if total != fiInjections {
			t.Errorf("%s: counts sum to %d, want %d", target, total, fiInjections)
		}
	}
}

func TestGoldenRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"seed":1,"injections":192,"counts":{}}`,
		`{"seed":1,"injections":192,"counts":{"histogram":{"reg":[1,2,3]}}}`,
	} {
		if _, err := loadGolden([]byte(bad)); err == nil || !strings.HasPrefix(err.Error(), "golden:") {
			t.Errorf("loadGolden(%s) = %v, want a golden error", bad, err)
		}
	}
}
