package core

// Golden-file tests: the exact transformed IR for the paper's figure
// examples, per mode and optimization level. Regenerate with:
//
//	go test ./internal/core -run TestGolden -update
//
// A diff here means the passes changed observable output — intended
// changes update the goldens; unintended ones are regressions.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
)

var update = flag.Bool("update", false, "rewrite golden files")

func goldenConfigs() []struct {
	tag string
	cfg Config
} {
	return []struct {
		tag string
		cfg Config
	}{
		{"ilr-basic", Config{Mode: ModeILR, Opt: OptNone}},
		{"ilr-full", Config{Mode: ModeILR, Opt: OptFaultProp}},
		{"tx", Config{Mode: ModeTX, Opt: OptFaultProp, TxThreshold: 1000}},
		{"haft", Config{Mode: ModeHAFT, Opt: OptFaultProp, TxThreshold: 1000}},
		{"haft-reduced", ReducedConfig()},
		{"tmr-basic", Config{Mode: ModeTMR, Opt: OptNone}},
		{"tmr-full", Config{Mode: ModeTMR, Opt: OptFaultProp}},
	}
}

func TestGoldenFigures(t *testing.T) {
	irs, err := filepath.Glob("testdata/*.ir")
	if err != nil || len(irs) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	for _, path := range irs {
		base := strings.TrimSuffix(filepath.Base(path), ".ir")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, gc := range goldenConfigs() {
			name := base + "." + gc.tag
			t.Run(name, func(t *testing.T) {
				out, err := Harden(m, gc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := out.String()
				gpath := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(gpath, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(gpath)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("golden mismatch for %s:\n--- got\n%s\n--- want\n%s",
						name, got, want)
				}
			})
		}
	}
}

// TestGoldenOutputsRunnable double-checks every golden file is valid,
// verifiable IR (catches hand-edited goldens).
func TestGoldenOutputsRunnable(t *testing.T) {
	goldens, _ := filepath.Glob("testdata/*.golden")
	if len(goldens) == 0 {
		t.Skip("no goldens yet; run with -update")
	}
	for _, g := range goldens {
		src, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.Parse(string(src)); err != nil {
			t.Errorf("%s: golden does not parse: %v", g, err)
		}
	}
}
