package lang

// Fuzzing the execution core: random source programs are compiled,
// optionally hardened, and run twice — once with stepwise turns
// (vm.New) and once with run-ahead turns (vm.NewFromProgram) — and the
// two runs must be bit-identical in status, externalized output, and
// run statistics. Both share one lowering, so the lowering is held to
// the AST interpreter instead: whenever Interp accepts a program, every
// variant must run to completion with Interp's output. This catches
// lowering or dispatch bugs the hand-written suite in
// internal/vm misses, because the generator produces control flow
// (nested loops, guarded division, dead branches) no fixture author
// would think to write.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// engineVariants is the hardening matrix for the engine fuzzer: the
// interesting lowering shapes are native code (no replicas), plain ILR
// (master/shadow pairs and the inline tx.check path), full HAFT with
// every reduction pass (long coalesced runs crossing transaction
// boundaries), and TMR (triple runs and tmr.vote).
func engineVariants() []fuzzVariant {
	return []fuzzVariant{
		{"native", core.Config{Mode: core.ModeNative}},
		{"ilr/m00", reductionConfig(core.ModeILR, 0, false)},
		{"ilr/m14", reductionConfig(core.ModeILR, 14, false)},
		{"haft/m00", reductionConfig(core.ModeHAFT, 0, false)},
		{"haft/m15", reductionConfig(core.ModeHAFT, 15, false)},
		{"tmr", tmrConfig(false)},
	}
}

// engineCheck compiles one source and, for every hardening variant,
// compares stepwise against run-ahead turns and, when the AST interpreter
// accepts the program, both against its output.
func engineCheck(src string, variants []fuzzVariant) error {
	prog, err := ParseProgram(src)
	if err != nil {
		return errNotAProgram{err}
	}
	oracle, ierr := Interp(prog)
	m, err := CompileProgram(prog)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	type outcome struct {
		status vm.Status
		out    []uint64
		stats  vm.RunStats
	}
	run := func(mach *vm.Machine) outcome {
		mach.Run(vm.ThreadSpec{Func: "main"})
		return outcome{mach.Status(), mach.Output(), mach.Stats()}
	}
	for _, v := range variants {
		var mod *ir.Module
		if v.cfg.Mode == core.ModeNative {
			mod = m.Clone()
		} else {
			mod, _, err = core.HardenWithStats(m, v.cfg)
			if err != nil {
				return fmt.Errorf("%s: harden: %w", v.name, err)
			}
		}
		cfg := vmQuiet()
		cfg.MaxDynInstrs = 10_000_000 // see fuzzCheck: fail loops fast
		stepwise := run(vm.New(mod, 1, cfg))
		ahead := run(vm.NewFromProgram(vm.Compile(mod), 1, cfg))
		if ahead.status != stepwise.status {
			return fmt.Errorf("%s: run-ahead status %v, stepwise %v",
				v.name, ahead.status, stepwise.status)
		}
		if !outputsEqual(ahead.out, stepwise.out) {
			return fmt.Errorf("%s: run-ahead output %v, stepwise %v",
				v.name, ahead.out, stepwise.out)
		}
		if ahead.stats != stepwise.stats {
			return fmt.Errorf("%s: run-ahead stats %+v, stepwise %+v",
				v.name, ahead.stats, stepwise.stats)
		}
		if ierr != nil {
			continue
		}
		if stepwise.status != vm.StatusOK {
			return fmt.Errorf("%s: %v (%s) on a program the AST interpreter runs",
				v.name, stepwise.status, stepwise.stats.CrashReason)
		}
		if !outputsEqual(stepwise.out, oracle) {
			return fmt.Errorf("%s: output %v, AST interpreter %v", v.name, stepwise.out, oracle)
		}
	}
	return nil
}

// TestFuzzEngineDifferential generates random programs (seed space
// disjoint from the other fuzzers) and cross-checks the two execution
// engines on every hardening variant. HAFT_FUZZ_SECONDS switches to a
// time budget for the nightly job.
func TestFuzzEngineDifferential(t *testing.T) {
	var deadline time.Time
	seeds := 300
	if s := os.Getenv("HAFT_FUZZ_SECONDS"); s != "" {
		sec, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad HAFT_FUZZ_SECONDS: %v", err)
		}
		deadline = time.Now().Add(time.Duration(sec) * time.Second)
		seeds = 1 << 30
	} else if testing.Short() {
		seeds = 60
	}
	variants := engineVariants()
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
				src := generate(int64(2_000_000 + seed))
				err := engineCheck(src, variants)
				mu.Lock()
				if err == nil {
					checked++
				} else if failSeed < 0 || seed < failSeed {
					failSeed, failErr = seed, err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failSeed >= 0 {
		src := generate(int64(2_000_000 + failSeed))
		if _, notProg := failErr.(errNotAProgram); notProg {
			t.Fatalf("seed %d: generator produced an unparsable program: %v\n%s", failSeed, failErr, src)
		}
		t.Fatalf("seed %d: %v\n%s", failSeed, failErr, src)
	}
	t.Logf("fuzzed %d programs across both dispatches, all runs bit-identical", checked)
}

// TestFuzzCorpusEngineReplay runs every stored pipeline-fuzzer
// counterexample through the engine differential too: programs that
// once broke a reduction pass are exactly the shapes most likely to
// stress the dispatch.
func TestFuzzCorpusEngineReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(fuzzCorpusDir, "*.hc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("fuzz corpus %s is empty — the seed regressions are missing", fuzzCorpusDir)
	}
	variants := engineVariants()
	for _, fp := range files {
		src, err := os.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := engineCheck(string(src), variants); err != nil {
			t.Errorf("%s: %v", filepath.Base(fp), err)
		}
	}
}
