package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenPath is the bundle of the fixed-seed smoke subset — the same
// selection CI runs and diffs (.github/workflows/ci.yml).
const goldenPath = "testdata/golden_smoke.json"

// sweepGoldenPath pins fi/full-sweep: all six fault models x the three
// hardened modes over four workloads (72 twin-checked campaigns). Its
// counts predate fast-forward injection, which is what makes it that
// change's certificate; CI reproduces it as
// `haftscenario run -name fi/full-sweep -seed 1`.
const sweepGoldenPath = "testdata/golden_full_sweep.json"

// goldenConfig is the exact invocation the golden pins: seed 1, the
// smoke attribute, scenario-declared budgets. CI reproduces it as
// `haftscenario run -attr smoke -seed 1`.
func goldenConfig() Config {
	return Config{Filter: Filter{Attrs: []string{"smoke"}}, Seed: 1}
}

// TestGoldenSmoke executes the smoke subset and diffs it against the
// checked-in golden bundle. Regenerate with
//
//	HAFT_UPDATE_GOLDEN=1 go test ./internal/scenario -run TestGolden
//
// after an intentional change (new scenarios, changed hardening
// passes, changed engines — anything that legitimately moves the
// pinned outcome distributions).
func TestGoldenSmoke(t *testing.T) {
	checkGolden(t, "smoke", goldenPath, goldenConfig())
}

// TestGoldenFullSweep does the same for the wide sweep.
func TestGoldenFullSweep(t *testing.T) {
	checkGolden(t, "full-sweep", sweepGoldenPath, Config{Filter: Filter{Names: []string{"fi/full-sweep"}}, Seed: 1})
}

func checkGolden(t *testing.T, what, path string, cfg Config) {
	if testing.Short() {
		t.Skipf("%s matrix is a multi-second run", what)
	}
	bundle, err := DefaultRegistry().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}

	if os.Getenv("HAFT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d runs)", path, bundle.Summary.Runs)
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden bundle (%v); generate with HAFT_UPDATE_GOLDEN=1", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	golden, err := DecodeBundle(want)
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(golden, bundle)
	if rep.Regression() {
		t.Errorf("%s matrix regressed vs golden:\n%s", what, rep.String())
	} else {
		// Byte drift without semantic regressions (e.g. new runs):
		// still a failure — the golden must be regenerated consciously.
		t.Errorf("%s bundle drifted from golden without regressions "+
			"(additions? format change?) — regenerate if intentional:\n%s", what, rep.String())
	}
}
