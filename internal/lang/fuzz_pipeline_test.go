package lang

// Pipeline fuzzer for the check-reduction suite: random source
// programs are executed natively and under every combination of the
// four overhead-reduction toggles (TX-aware relaxation, copy
// propagation, redundant-check elimination, check coalescing), in both
// ILR and full-HAFT modes plus the voting TMR backend, with and
// without the scalar pre-pass. Every
// variant must produce byte-identical output — or fail in the same way
// when the reference interpreter rejects the program (e.g. division by
// zero).
//
// Failures are shrunk by a line-oriented delta minimizer and stored in
// testdata/fuzz/, which TestFuzzCorpusReplay replays on every run so a
// once-found counterexample stays fixed forever.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/vm"
)

// reductionConfig builds the hardening config for one toggle mask:
// bit 0 = RelaxTX, bit 1 = CopyProp, bit 2 = ReduceChecks,
// bit 3 = CoalesceChecks.
func reductionConfig(mode core.Mode, mask int, optimize bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.TxThreshold = 300
	cfg.Optimize = optimize
	cfg.RelaxTX = mask&1 != 0
	cfg.CopyProp = mask&2 != 0
	cfg.ReduceChecks = mask&4 != 0
	cfg.CoalesceChecks = mask&8 != 0
	return cfg
}

// tmrConfig builds the triple-modular-redundancy configuration. The
// four reduction toggles only exist for the pair-check passes (core
// skips them in TMR mode), so the TMR leg of the matrix is just the
// pass itself, with and without the scalar pre-pass.
func tmrConfig(optimize bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeTMR
	cfg.TxThreshold = 300
	cfg.Optimize = optimize
	return cfg
}

// fuzzVariant names one hardening configuration of the matrix.
type fuzzVariant struct {
	name string
	cfg  core.Config
}

// fuzzVariants is the full toggle matrix: every mask for full HAFT,
// the TX-independent masks for plain ILR, and the all-on configuration
// with the scalar pre-pass for both modes. The corpus replay runs
// every stored program through all of it.
func fuzzVariants() []fuzzVariant {
	var vs []fuzzVariant
	for mask := 0; mask < 16; mask++ {
		vs = append(vs, fuzzVariant{
			fmt.Sprintf("haft/m%02d", mask),
			reductionConfig(core.ModeHAFT, mask, false),
		})
	}
	// RelaxTX needs transactions; in ILR mode only the other three
	// toggles are meaningful.
	for mask := 0; mask < 16; mask += 2 {
		vs = append(vs, fuzzVariant{
			fmt.Sprintf("ilr/m%02d", mask),
			reductionConfig(core.ModeILR, mask, false),
		})
	}
	vs = append(vs,
		fuzzVariant{"haft/O+all", reductionConfig(core.ModeHAFT, 15, true)},
		fuzzVariant{"ilr/O+all", reductionConfig(core.ModeILR, 14, true)},
		fuzzVariant{"tmr", tmrConfig(false)},
		fuzzVariant{"tmr/O", tmrConfig(true)},
	)
	return vs
}

// variantsForSeed spreads the matrix across the seed stream: each
// program runs natively, under its seed's rotating HAFT and ILR masks,
// and under the all-on configuration; every eighth program adds the
// scalar pre-pass variants. Over 500+ seeds every toggle combination
// is exercised dozens of times while one seed stays cheap enough for
// the single-core CI budget.
func variantsForSeed(seed int) []fuzzVariant {
	hm := seed % 16
	im := (seed % 8) * 2
	vs := []fuzzVariant{
		{fmt.Sprintf("haft/m%02d", hm), reductionConfig(core.ModeHAFT, hm, false)},
		{fmt.Sprintf("ilr/m%02d", im), reductionConfig(core.ModeILR, im, false)},
		{"haft/m15", reductionConfig(core.ModeHAFT, 15, false)},
		{"tmr", tmrConfig(false)},
	}
	if seed%8 == 0 {
		vs = append(vs,
			fuzzVariant{"haft/O+all", reductionConfig(core.ModeHAFT, 15, true)},
			fuzzVariant{"ilr/O+all", reductionConfig(core.ModeILR, 14, true)},
			fuzzVariant{"tmr/O", tmrConfig(true)},
		)
	}
	return vs
}

// errNotAProgram marks sources the front end rejects — uninteresting
// to the minimizer, fatal to the generator tests.
type errNotAProgram struct{ err error }

func (e errNotAProgram) Error() string { return "not a program: " + e.err.Error() }

// fuzzCheck runs one source through the whole differential matrix and
// returns a description of the first divergence.
func fuzzCheck(src string, variants []fuzzVariant) error {
	prog, err := ParseProgram(src)
	if err != nil {
		return errNotAProgram{err}
	}
	oracle, ierr := Interp(prog)
	m, err := CompileProgram(prog)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	runOne := func(mod *ir.Module) (out []uint64, ok bool) {
		cfg := vmQuiet()
		// Generated programs terminate within thousands of instructions;
		// the tight budget makes the deterministic infinite loops the
		// generator can produce (loop counters reassigned in the body)
		// fail fast instead of burning the default 500M-instruction
		// budget per variant. The reference interpreter's own step limit
		// rejects the same programs, so crash behavior stays aligned.
		cfg.MaxDynInstrs = 10_000_000
		// Outputs are what this matrix compares, so it runs ahead;
		// engineCheck is what holds stepwise dispatch to it.
		mach := vm.NewFromProgram(vm.Compile(mod), 1, cfg)
		mach.Run(vm.ThreadSpec{Func: "main"})
		return mach.Output(), mach.Status() == vm.StatusOK
	}
	native, nativeOK := runOne(m.Clone())
	if ierr != nil {
		// The oracle rejected the program: no variant may silently
		// succeed (same-crash-behavior requirement).
		if nativeOK {
			return fmt.Errorf("oracle failed (%v) but native run succeeded", ierr)
		}
	} else {
		if !nativeOK {
			return fmt.Errorf("native run failed where the oracle succeeded")
		}
		if !outputsEqual(native, oracle) {
			return fmt.Errorf("native output %v, oracle %v", native, oracle)
		}
	}
	for _, v := range variants {
		hm, _, err := core.HardenWithStats(m, v.cfg)
		if err != nil {
			return fmt.Errorf("%s: harden: %w", v.name, err)
		}
		out, ok := runOne(hm)
		if ierr != nil {
			if ok {
				return fmt.Errorf("%s: oracle failed (%v) but hardened run succeeded", v.name, ierr)
			}
			continue
		}
		if !ok {
			return fmt.Errorf("%s: hardened run failed on a correct program", v.name)
		}
		if !outputsEqual(out, native) {
			return fmt.Errorf("%s: output %v, native %v", v.name, out, native)
		}
	}
	return nil
}

func outputsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// minimizeFailure shrinks a failing source with chunked line removal:
// keep deleting line ranges while some variant still diverges.
func minimizeFailure(src string, variants []fuzzVariant) string {
	fails := func(s string) bool {
		err := fuzzCheck(s, variants)
		if err == nil {
			return false
		}
		if _, notProg := err.(errNotAProgram); notProg {
			return false
		}
		return true
	}
	lines := strings.Split(src, "\n")
	for chunk := len(lines) / 2; chunk >= 1; {
		removedAny := false
		for start := 0; start+chunk <= len(lines); {
			cand := make([]string, 0, len(lines)-chunk)
			cand = append(cand, lines[:start]...)
			cand = append(cand, lines[start+chunk:]...)
			if fails(strings.Join(cand, "\n")) {
				lines = cand
				removedAny = true
			} else {
				start += chunk
			}
		}
		if !removedAny {
			chunk /= 2
		}
	}
	return strings.Join(lines, "\n")
}

const fuzzCorpusDir = "testdata/fuzz"

// TestFuzzReductionPipeline generates at least 500 random programs
// (HAFT_FUZZ_SECONDS switches to a time budget for the nightly job)
// and differentially tests each across the toggle matrix with per-pass
// verification enabled. The first failure is minimized and saved to
// the corpus.
func TestFuzzReductionPipeline(t *testing.T) {
	oldCore, oldOpt := core.VerifyEachPass, opt.VerifyEachPass
	core.VerifyEachPass, opt.VerifyEachPass = true, true
	defer func() { core.VerifyEachPass, opt.VerifyEachPass = oldCore, oldOpt }()

	var deadline time.Time
	seeds := 520
	if s := os.Getenv("HAFT_FUZZ_SECONDS"); s != "" {
		sec, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad HAFT_FUZZ_SECONDS: %v", err)
		}
		deadline = time.Now().Add(time.Duration(sec) * time.Second)
		seeds = 1 << 30
	} else if testing.Short() {
		seeds = 80
	}
	// Seed space disjoint from TestDifferentialCompilerVsInterpreter so
	// the two suites explore different programs.
	var (
		mu       sync.Mutex
		checked  int
		failSeed = -1
		failErr  error
		next     int64 = -1
	)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := int(atomic.AddInt64(&next, 1))
				if seed >= seeds {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				mu.Lock()
				stop := failSeed >= 0 && failSeed < seed
				mu.Unlock()
				if stop {
					return
				}
				src := generate(int64(1_000_000 + seed))
				err := fuzzCheck(src, variantsForSeed(seed))
				mu.Lock()
				if err == nil {
					checked++
				} else if failSeed < 0 || seed < failSeed {
					// Keep the lowest failing seed for determinism.
					failSeed, failErr = seed, err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failSeed >= 0 {
		variants := variantsForSeed(failSeed)
		src := generate(int64(1_000_000 + failSeed))
		if _, notProg := failErr.(errNotAProgram); notProg {
			t.Fatalf("seed %d: generator produced an unparsable program: %v\n%s", failSeed, failErr, src)
		}
		min := minimizeFailure(src, variants)
		if mkErr := os.MkdirAll(fuzzCorpusDir, 0o755); mkErr != nil {
			t.Fatalf("corpus dir: %v", mkErr)
		}
		path := filepath.Join(fuzzCorpusDir, fmt.Sprintf("fail-seed%d.hc", failSeed))
		if wErr := os.WriteFile(path, []byte(min), 0o644); wErr != nil {
			t.Fatalf("writing counterexample: %v", wErr)
		}
		t.Fatalf("seed %d: %v\nminimized counterexample saved to %s:\n%s", failSeed, failErr, path, min)
	}
	t.Logf("fuzzed %d programs across the pipeline toggle matrix, all outputs identical", checked)
}

// TestFuzzCorpusReplay re-runs every stored counterexample (and the
// hand-written regression programs) through the full matrix.
func TestFuzzCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(fuzzCorpusDir, "*.hc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("fuzz corpus %s is empty — the seed regressions are missing", fuzzCorpusDir)
	}
	oldCore, oldOpt := core.VerifyEachPass, opt.VerifyEachPass
	core.VerifyEachPass, opt.VerifyEachPass = true, true
	defer func() { core.VerifyEachPass, opt.VerifyEachPass = oldCore, oldOpt }()
	variants := fuzzVariants()
	for _, fp := range files {
		src, err := os.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := fuzzCheck(string(src), variants); err != nil {
			t.Errorf("%s: %v", filepath.Base(fp), err)
		}
	}
}
