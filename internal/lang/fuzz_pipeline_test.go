package lang

// The program fuzzer: random source programs are compiled once, run by
// the AST interpreter (the oracle) and natively, and then hardened and
// run under every combination of the four overhead-reduction toggles
// (TX-aware relaxation, copy propagation, redundant-check elimination,
// check coalescing), in both ILR and full-HAFT modes plus the voting
// TMR backend, with and without the scalar pre-pass. Every variant must
// produce the oracle's output — or fail too when the oracle rejects the
// program (e.g. division by zero).
//
// The engine variants (native code, plain ILR, full HAFT with and
// without every reduction, TMR) also run with stepwise turns (vm.New)
// next to run-ahead turns (vm.NewFromProgram), and the two runs must be
// bit-identical in status, output and run statistics. Both engines
// share one lowering, which the oracle holds to account. The generator
// produces control flow (nested loops, guarded division, dead branches)
// no fixture author would think to write.
//
// Each program is generated, interpreted and run natively once; the
// oracle half is reported by TestFuzzReductionPipeline, the engine half
// by TestFuzzEngineDifferential. The first failure is shrunk by a
// line-oriented delta minimizer and stored in testdata/fuzz/, which
// TestFuzzCorpusReplay and TestFuzzCorpusEngineReplay replay on every
// run so a once-found counterexample stays fixed forever.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// stepwise adds a stepwise-turn twin of its run-ahead run.
type fuzzVariant struct {
	name     string
	cfg      core.Config
	stepwise bool
}

// fuzzVariants is the full toggle matrix: every mask for full HAFT,
// the TX-independent masks for plain ILR, and the all-on configuration
// with the scalar pre-pass for both modes. The corpus replay runs
// every stored program through all of it.
func fuzzVariants() []fuzzVariant {
	var vs []fuzzVariant
	for mask := 0; mask < 16; mask++ {
		vs = append(vs, fuzzVariant{
			name: fmt.Sprintf("haft/m%02d", mask),
			cfg:  reductionConfig(core.ModeHAFT, mask, false),
		})
	}
	// RelaxTX needs transactions; in ILR mode only the other three
	// toggles are meaningful.
	for mask := 0; mask < 16; mask += 2 {
		vs = append(vs, fuzzVariant{
			name: fmt.Sprintf("ilr/m%02d", mask),
			cfg:  reductionConfig(core.ModeILR, mask, false),
		})
	}
	return append(vs,
		fuzzVariant{name: "haft/O+all", cfg: reductionConfig(core.ModeHAFT, 15, true)},
		fuzzVariant{name: "ilr/O+all", cfg: reductionConfig(core.ModeILR, 14, true)},
		fuzzVariant{name: "tmr", cfg: tmrConfig(false)},
		fuzzVariant{name: "tmr/O", cfg: tmrConfig(true)},
	)
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
		{name: fmt.Sprintf("haft/m%02d", hm), cfg: reductionConfig(core.ModeHAFT, hm, false)},
		{name: fmt.Sprintf("ilr/m%02d", im), cfg: reductionConfig(core.ModeILR, im, false)},
		{name: "haft/m15", cfg: reductionConfig(core.ModeHAFT, 15, false)},
		{name: "tmr", cfg: tmrConfig(false)},
	}
	if seed%8 == 0 {
		vs = append(vs,
			fuzzVariant{name: "haft/O+all", cfg: reductionConfig(core.ModeHAFT, 15, true)},
			fuzzVariant{name: "ilr/O+all", cfg: reductionConfig(core.ModeILR, 14, true)},
			fuzzVariant{name: "tmr/O", cfg: tmrConfig(true)},
		)
	}
	return vs
}

// engineVariants are the lowering shapes the engine differential runs
// stepwise too: native code (no replicas), plain ILR (master/shadow
// pairs and the inline tx.check path), full HAFT with every reduction
// pass (long coalesced runs crossing transaction boundaries), and TMR
// (triple runs and tmr.vote).
func engineVariants() []fuzzVariant {
	return []fuzzVariant{
		{name: "native", cfg: core.Config{Mode: core.ModeNative}, stepwise: true},
		{name: "ilr/m00", cfg: reductionConfig(core.ModeILR, 0, false), stepwise: true},
		{name: "ilr/m14", cfg: reductionConfig(core.ModeILR, 14, false), stepwise: true},
		{name: "haft/m00", cfg: reductionConfig(core.ModeHAFT, 0, false), stepwise: true},
		{name: "haft/m15", cfg: reductionConfig(core.ModeHAFT, 15, false), stepwise: true},
		{name: "tmr", cfg: tmrConfig(false), stepwise: true},
	}
}

// withEngine merges the engine variants into vs: each distinct name
// appears once, and stepwise twins are added to the engine variants.
func withEngine(vs []fuzzVariant) []fuzzVariant {
	return dedupVariants(append(engineVariants(), vs...))
}

// dedupVariants keeps the first variant of each name, marking it
// stepwise when any variant of that name is.
func dedupVariants(vs []fuzzVariant) []fuzzVariant {
	at := map[string]int{}
	var out []fuzzVariant
	for _, v := range vs {
		if i, ok := at[v.name]; ok {
			out[i].stepwise = out[i].stepwise || v.stepwise
			continue
		}
		at[v.name] = len(out)
		out = append(out, v)
	}
	return out
}

// errNotAProgram marks sources the parser or the compiler rejects —
// uninteresting to the minimizer, fatal to the generator tests.
type errNotAProgram struct{ err error }

func (e errNotAProgram) Error() string { return "not a program: " + e.err.Error() }

// errEngine marks a stepwise twin that differs from its run-ahead run.
type errEngine struct{ msg string }

func (e errEngine) Error() string { return e.msg }

// errOracle marks a variant that differs from the oracle.
type errOracle struct{ msg string }

func (e errOracle) Error() string { return e.msg }

// fuzzOutcome is what one run of a variant exposes.
type fuzzOutcome struct {
	status vm.Status
	out    []uint64
	stats  vm.RunStats
}

// fuzzRun runs mod's main on one thread, stepwise or run-ahead.
// Generated programs terminate within tens of thousands of
// instructions; the budget, hangMargin, makes the deterministic
// infinite loops the generator can produce (loop counters reassigned in
// the body) fail fast instead of burning the default 500M-instruction
// budget per variant. The oracle's step limit is derived from the same
// margin and rejects the same programs, so crash behaviour stays
// aligned.
func fuzzRun(mod *ir.Module, stepwise bool) fuzzOutcome {
	cfg := vmQuiet()
	cfg.MaxDynInstrs = hangMargin
	var mach *vm.Machine
	if stepwise {
		mach = vm.New(mod, 1, cfg)
	} else {
		mach = vm.NewFromProgram(vm.Compile(mod), 1, cfg)
	}
	mach.Run(vm.ThreadSpec{Func: "main"})
	return fuzzOutcome{mach.Status(), mach.Output(), mach.Stats()}
}

// fuzzCheck runs one source through the oracle, natively and through
// every variant. It returns the first stepwise twin that differs from
// its run-ahead run (an errEngine) joined with the first variant that
// differs from the oracle (an errOracle), so each check is complete
// whatever the other finds. The native run is the "native" variant
// when vs holds one.
func fuzzCheck(src string, vs []fuzzVariant) error {
	prog, err := ParseProgram(src)
	if err != nil {
		return errNotAProgram{err}
	}
	oracle, ierr := Interp(prog)
	m, err := CompileProgram(prog)
	if err != nil {
		return errNotAProgram{err}
	}
	if m.Func("main") == nil {
		return errNotAProgram{fmt.Errorf("no main function")}
	}
	if vs[0].name != "native" {
		vs = append([]fuzzVariant{{name: "native", cfg: core.Config{Mode: core.ModeNative}}}, vs...)
	}
	// Variants that harden to the same module share their runs: the
	// machine is deterministic.
	runs := map[string]fuzzOutcome{}
	run := func(mod *ir.Module, stepwise bool) fuzzOutcome {
		key := fmt.Sprint(stepwise, mod)
		o, ok := runs[key]
		if !ok {
			o = fuzzRun(mod, stepwise)
			runs[key] = o
		}
		return o
	}
	var engErr, oracleErr error
	for _, v := range vs {
		var mod *ir.Module
		if v.cfg.Mode == core.ModeNative {
			mod = m.Clone()
		} else if mod, _, err = core.HardenWithStats(m, v.cfg); err != nil {
			return fmt.Errorf("%s: harden: %w", v.name, err)
		}
		got := run(mod, false)
		if v.stepwise && engErr == nil {
			step := run(mod, true)
			switch {
			case got.status != step.status:
				engErr = errEngine{fmt.Sprintf("%s: run-ahead status %v, stepwise %v", v.name, got.status, step.status)}
			case !slices.Equal(got.out, step.out):
				engErr = errEngine{fmt.Sprintf("%s: run-ahead output %v, stepwise %v", v.name, got.out, step.out)}
			case got.stats != step.stats:
				engErr = errEngine{fmt.Sprintf("%s: run-ahead stats %+v, stepwise %+v", v.name, got.stats, step.stats)}
			}
		}
		if oracleErr != nil {
			continue
		}
		ok := got.status == vm.StatusOK
		switch {
		case ierr != nil && ok:
			// The oracle rejected the program: no variant may silently
			// succeed.
			oracleErr = errOracle{fmt.Sprintf("%s: oracle failed (%v) but the run succeeded", v.name, ierr)}
		case ierr == nil && !ok:
			oracleErr = errOracle{fmt.Sprintf("%s: %v (%s) on a program the oracle runs", v.name, got.status, got.stats.CrashReason)}
		case ierr == nil && !slices.Equal(got.out, oracle):
			oracleErr = errOracle{fmt.Sprintf("%s: output %v, oracle %v", v.name, got.out, oracle)}
		case ierr == nil && got.stats.DynInstrs > hangMargin/4:
			oracleErr = errOracle{fmt.Sprintf("%s: a terminating run took %d instructions, over a quarter of hangMargin (%d): raise the margin",
				v.name, got.stats.DynInstrs, hangMargin)}
		}
	}
	return errors.Join(engErr, oracleErr)
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

// withVerifyEachPass runs f with per-pass IR verification on.
func withVerifyEachPass(f func()) {
	oldCore, oldOpt := core.VerifyEachPass, opt.VerifyEachPass
	core.VerifyEachPass, opt.VerifyEachPass = true, true
	defer func() { core.VerifyEachPass, opt.VerifyEachPass = oldCore, oldOpt }()
	f()
}

// fuzzDriverResult is what one pass of the program fuzzer found.
type fuzzDriverResult struct {
	err           error // a bad HAFT_FUZZ_SECONDS
	timed         bool  // HAFT_FUZZ_SECONDS set: every program runs the engine variants
	engineSeeds   int   // seeds below this run the engine variants stepwise
	checked       int   // programs that passed every check
	engineChecked int   // of those, programs that also ran stepwise
	failSeed      int   // lowest failing seed, or -1
	failErr       error
	saved, min    string // the minimized counterexample and where it went
}

var (
	fuzzDriverOnce sync.Once
	fuzzDriver     fuzzDriverResult
)

// runFuzzDriver generates each program once and checks it across its
// share of the toggle matrix with per-pass verification on; the first
// 300 seeds (every seed under HAFT_FUZZ_SECONDS) also run the engine
// variants stepwise. The driver stops at the lowest failing seed, whose
// program is minimized and saved to the corpus. It runs once per test
// binary: TestFuzzReductionPipeline and TestFuzzEngineDifferential
// each report their half of the same pass.
func runFuzzDriver() *fuzzDriverResult {
	fuzzDriverOnce.Do(func() { withVerifyEachPass(func() { fuzzDriver = fuzzPrograms() }) })
	return &fuzzDriver
}

func fuzzPrograms() fuzzDriverResult {
	r := fuzzDriverResult{failSeed: -1}
	var deadline time.Time
	seeds := 520
	r.engineSeeds = 300
	if s := os.Getenv("HAFT_FUZZ_SECONDS"); s != "" {
		sec, err := strconv.Atoi(s)
		if err != nil {
			r.err = fmt.Errorf("bad HAFT_FUZZ_SECONDS: %v", err)
			return r
		}
		deadline = time.Now().Add(time.Duration(sec) * time.Second)
		seeds, r.engineSeeds, r.timed = 1<<30, 1<<30, true
	} else if testing.Short() {
		seeds, r.engineSeeds = 80, 60
	}
	variants := func(seed int) []fuzzVariant {
		if seed < r.engineSeeds {
			return withEngine(variantsForSeed(seed))
		}
		return dedupVariants(variantsForSeed(seed))
	}
	var (
		mu   sync.Mutex
		next int64 = -1
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := int(atomic.AddInt64(&next, 1))
				if seed >= seeds || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				mu.Lock()
				stop := r.failSeed >= 0 && r.failSeed < seed
				mu.Unlock()
				if stop {
					return
				}
				err := fuzzCheck(generate(int64(1_000_000+seed)), variants(seed))
				mu.Lock()
				if err == nil {
					r.checked++
					if seed < r.engineSeeds {
						r.engineChecked++
					}
				} else if r.failSeed < 0 || seed < r.failSeed {
					// Keep the lowest failing seed for determinism.
					r.failSeed, r.failErr = seed, err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if r.failSeed < 0 {
		return r
	}
	if _, notProg := r.failErr.(errNotAProgram); notProg {
		return r
	}
	r.min = minimizeFailure(generate(int64(1_000_000+r.failSeed)), variants(r.failSeed))
	if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
		r.err = fmt.Errorf("corpus dir: %v", err)
		return r
	}
	r.saved = filepath.Join(fuzzCorpusDir, fmt.Sprintf("fail-seed%d.hc", r.failSeed))
	if err := os.WriteFile(r.saved, []byte(r.min), 0o644); err != nil {
		r.err = fmt.Errorf("writing counterexample: %v", err)
	}
	return r
}

// requireNoFailure fails t when the driver failed anywhere: it stops
// at the lowest failing seed, so no seed past it was checked.
func (r *fuzzDriverResult) requireNoFailure(t *testing.T) {
	t.Helper()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.failSeed < 0 {
		return
	}
	src := generate(int64(1_000_000 + r.failSeed))
	if _, notProg := r.failErr.(errNotAProgram); notProg {
		t.Fatalf("seed %d: generator produced a program the front end rejects: %v\n%s", r.failSeed, r.failErr, src)
	}
	t.Fatalf("seed %d: %v\nminimized counterexample saved to %s:\n%s", r.failSeed, r.failErr, r.saved, r.min)
}

// TestFuzzReductionPipeline holds every generated program's hardened
// variants to the oracle: 520 programs (80 under -short;
// HAFT_FUZZ_SECONDS switches to a time budget for the nightly job).
func TestFuzzReductionPipeline(t *testing.T) {
	r := runFuzzDriver()
	r.requireNoFailure(t)
	t.Logf("fuzzed %d programs across the pipeline toggle matrix: all runs agree with the oracle", r.checked)
}

// TestFuzzEngineDifferential holds the stepwise twin of every engine
// variant to its run-ahead run on the first 300 generated programs (60
// under -short, all under HAFT_FUZZ_SECONDS): status, output and run
// statistics must be bit-identical.
func TestFuzzEngineDifferential(t *testing.T) {
	r := runFuzzDriver()
	r.requireNoFailure(t)
	want := min(r.engineSeeds, r.checked)
	if r.engineChecked != want {
		t.Fatalf("%d programs ran stepwise vs run-ahead, want %d", r.engineChecked, want)
	}
	if r.engineChecked == 0 {
		t.Fatal("no program ran stepwise vs run-ahead")
	}
	t.Logf("%d programs ran stepwise vs run-ahead: all twins agree", r.engineChecked)
}

// corpusReplay holds the outcome of replaying every stored program.
type corpusReplay struct {
	err   error
	files []string
	errs  []error // per file, nil when every check passed
}

var (
	corpusOnce sync.Once
	corpus     corpusReplay
)

// replayCorpus runs every stored counterexample (and the hand-written
// regression programs) once through the full matrix, engine variants
// stepwise too: programs that once broke a reduction pass are the
// shapes most likely to stress the dispatch. TestFuzzCorpusReplay and
// TestFuzzCorpusEngineReplay each report their half of the replay.
func replayCorpus() *corpusReplay {
	corpusOnce.Do(func() {
		files, err := filepath.Glob(filepath.Join(fuzzCorpusDir, "*.hc"))
		if err != nil {
			corpus.err = err
			return
		}
		if len(files) == 0 {
			corpus.err = fmt.Errorf("fuzz corpus %s is empty — the seed regressions are missing", fuzzCorpusDir)
			return
		}
		variants := withEngine(fuzzVariants())
		withVerifyEachPass(func() {
			for _, fp := range files {
				src, err := os.ReadFile(fp)
				if err == nil {
					err = fuzzCheck(string(src), variants)
				}
				corpus.files = append(corpus.files, filepath.Base(fp))
				corpus.errs = append(corpus.errs, err)
			}
		})
	})
	return &corpus
}

// only reports whether err holds a divergence of kind T and nothing
// else: a hardening or front-end error belongs to every check.
func only[T error](err error) bool {
	var eng errEngine
	var orc errOracle
	return errors.As(err, new(T)) && !(errors.As(err, &eng) && errors.As(err, &orc))
}

// TestFuzzCorpusReplay holds every stored program's variants to the
// oracle, so a once-found counterexample stays fixed forever.
func TestFuzzCorpusReplay(t *testing.T) {
	c := replayCorpus()
	if c.err != nil {
		t.Fatal(c.err)
	}
	for i, err := range c.errs {
		if err != nil && !only[errEngine](err) {
			t.Errorf("%s: %v", c.files[i], err)
		}
	}
}

// TestFuzzCorpusEngineReplay holds the stepwise twin of every engine
// variant to its run-ahead run on every stored program.
func TestFuzzCorpusEngineReplay(t *testing.T) {
	c := replayCorpus()
	if c.err != nil {
		t.Fatal(c.err)
	}
	for i, err := range c.errs {
		if err != nil && !only[errOracle](err) {
			t.Errorf("%s: %v", c.files[i], err)
		}
	}
}
