package workloads

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

func vmQuiet() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		"histogram", "kmeans", "kmeans-ns", "linearreg", "matrixmul",
		"pca", "stringmatch", "wordcount", "wordcount-ns",
		"blackscholes", "canneal", "dedup", "ferret", "streamcluster",
		"swaptions", "vips", "vips-nc", "x264",
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d benchmarks, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %s, want %s (%v)", i, names[i], n, names)
		}
	}
	phoenix, parsec := 0, 0
	for _, s := range All() {
		switch s.Suite {
		case "phoenix":
			phoenix++
		case "parsec":
			parsec++
		default:
			t.Errorf("bad suite %q", s.Suite)
		}
	}
	if phoenix != 9 || parsec != 9 {
		t.Fatalf("phoenix=%d parsec=%d", phoenix, parsec)
	}
	if _, err := ByName("histogram"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

// run executes a program and returns output. The ok flag requires a
// clean exit.
func run(t *testing.T, p *Program, threads int, cfg vm.Config) []uint64 {
	t.Helper()
	mach := vm.New(p.Module.Clone(), threads, cfg)
	mach.Run(p.SpecsFor(threads)...)
	if mach.Status() != vm.StatusOK {
		t.Fatalf("run failed: %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	return mach.Output()
}

func TestAllBenchmarksNativeAndHAFTAgree(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := s.Build(0) // smallest input
			native := run(t, p, 2, vmQuiet())
			if len(native) == 0 {
				t.Fatal("no output")
			}
			cfg := core.DefaultConfig()
			cfg.TxThreshold = p.TxThreshold
			cfg.Blacklist = p.Blacklist
			hardened, err := core.Harden(p.Module, cfg)
			if err != nil {
				t.Fatalf("harden: %v", err)
			}
			hp := *p
			hp.Module = hardened
			got := run(t, &hp, 2, vmQuiet())
			if len(got) != len(native) {
				t.Fatalf("output length %d vs %d", len(got), len(native))
			}
			for i := range got {
				if got[i] != native[i] {
					t.Fatalf("output[%d] = %d, want %d", i, got[i], native[i])
				}
			}
		})
	}
}

func TestThreadCountInvariance(t *testing.T) {
	// The checksum must not depend on the number of threads (outputs
	// are merged deterministically by thread 0)... except canneal,
	// whose walk length is partitioned by thread count by design, and
	// benchmarks whose partition shapes per-thread buffers. Check the
	// ones documented as partition-invariant.
	for _, name := range []string{"histogram", "linearreg", "wordcount", "wordcount-ns",
		"kmeans", "kmeans-ns", "stringmatch", "pca", "streamcluster", "blackscholes"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Build(0)
		o1 := run(t, p, 1, vmQuiet())
		o4 := run(t, p, 4, vmQuiet())
		if o1[0] != o4[0] {
			t.Errorf("%s: checksum differs across thread counts: %d vs %d", name, o1[0], o4[0])
		}
	}
}

func TestSharingVariantsReduceAborts(t *testing.T) {
	// wordcount vs wordcount-ns: the no-sharing rewrite must slash the
	// abort rate (the paper reports ~7x at 14 threads).
	measure := func(name string) float64 {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Build(1)
		cfg := core.DefaultConfig()
		cfg.TxThreshold = 5000 // worst case, as in Table 3
		cfg.Blacklist = p.Blacklist
		h, err := core.Harden(p.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mach := vm.New(h, 8, vmQuiet())
		hp := *p
		hp.Module = h
		mach.Run(hp.SpecsFor(8)...)
		if mach.Status() != vm.StatusOK {
			t.Fatalf("%s: %v (%s)", name, mach.Status(), mach.Stats().CrashReason)
		}
		return mach.HTM.Stats.AbortRate()
	}
	wc := measure("wordcount")
	wcns := measure("wordcount-ns")
	t.Logf("abort rates: wordcount=%.2f%% wordcount-ns=%.2f%%", wc, wcns)
	if wc < 2*wcns {
		t.Errorf("no-sharing rewrite should cut aborts: wc=%.2f%% wc-ns=%.2f%%", wc, wcns)
	}
	if wc < 1 {
		t.Errorf("wordcount abort rate %.2f%% suspiciously low (paper: 14.6%%)", wc)
	}
}

func TestMatrixmulCapacityUnderHyperThreading(t *testing.T) {
	s, err := ByName("matrixmul")
	if err != nil {
		t.Fatal(err)
	}
	p := s.Build(1)
	cfg := core.DefaultConfig()
	cfg.TxThreshold = p.TxThreshold
	cfg.Blacklist = p.Blacklist
	h, err := core.Harden(p.Module, cfg)
	if err != nil {
		t.Fatal(err)
	}
	abortRate := func(ht bool) float64 {
		vcfg := vmQuiet()
		vcfg.HTM.HyperThreading = ht
		mach := vm.New(h.Clone(), 4, vcfg)
		hp := *p
		hp.Module = h
		mach.Run(hp.SpecsFor(4)...)
		if mach.Status() != vm.StatusOK {
			t.Fatalf("matrixmul: %v (%s)", mach.Status(), mach.Stats().CrashReason)
		}
		return mach.HTM.Stats.AbortRate()
	}
	plain := abortRate(false)
	ht := abortRate(true)
	t.Logf("matrixmul abort rate: %.3f%% -> %.3f%% under HT", plain, ht)
	if plain > 15 {
		t.Errorf("matrixmul non-HT abort rate %.3f%% too high (paper: ~1%%)", plain)
	}
	if ht < 3*plain {
		t.Errorf("hyper-threading should blow up matrixmul aborts (§5.4): %.3f%% -> %.3f%%", plain, ht)
	}
}

func TestUnprotectedLibraryLowersCoverage(t *testing.T) {
	// canneal (libstd++) and dedup (libc) must have visibly lower
	// coverage than histogram (§5.6).
	coverage := func(name string) float64 {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Build(0)
		cfg := core.DefaultConfig()
		cfg.TxThreshold = p.TxThreshold
		cfg.Blacklist = p.Blacklist
		h, err := core.Harden(p.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mach := vm.New(h, 2, vmQuiet())
		hp := *p
		hp.Module = h
		mach.Run(hp.SpecsFor(2)...)
		if mach.Status() != vm.StatusOK {
			t.Fatalf("%s: %v (%s)", name, mach.Status(), mach.Stats().CrashReason)
		}
		return 100 * mach.Coverage()
	}
	hist := coverage("histogram")
	can := coverage("canneal")
	ded := coverage("dedup")
	t.Logf("coverage: histogram=%.1f%% canneal=%.1f%% dedup=%.1f%%", hist, can, ded)
	if can >= hist || ded >= hist {
		t.Errorf("library-heavy benchmarks should have lower coverage: hist=%.1f can=%.1f dedup=%.1f",
			hist, can, ded)
	}
	if hist < 60 {
		t.Errorf("histogram coverage %.1f%% too low (paper: ~96%%)", hist)
	}
}

func TestScaleGrowsWork(t *testing.T) {
	s, err := ByName("histogram")
	if err != nil {
		t.Fatal(err)
	}
	small := s.Build(0)
	big := s.Build(2)
	ms := vm.New(small.Module.Clone(), 1, vmQuiet())
	ms.Run(small.SpecsFor(1)...)
	mb := vm.New(big.Module.Clone(), 1, vmQuiet())
	mb.Run(big.SpecsFor(1)...)
	if mb.Stats().DynInstrs < 4*ms.Stats().DynInstrs {
		t.Fatalf("scale 2 ran %d instrs vs %d at scale 0", mb.Stats().DynInstrs, ms.Stats().DynInstrs)
	}
}

// TestAllProgramsAreStrictSSA runs the full dominance-based SSA
// verifier over every benchmark and case study, natively and after the
// complete HAFT pipeline — the strongest static well-formedness check
// the repository has.
func verifySSA(m *ir.Module) error {
	for _, f := range m.Funcs {
		if err := cfg.VerifySSA(f); err != nil {
			return err
		}
	}
	return nil
}

func TestAllProgramsAreStrictSSA(t *testing.T) {
	all := append(All(), caseStudies()...)
	for _, s := range all {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := s.Build(0)
			if err := verifySSA(p.Module); err != nil {
				t.Fatalf("native: %v", err)
			}
			h, err := core.Harden(p.Module, core.Config{
				Mode: core.ModeHAFT, Opt: core.OptFaultProp,
				TxThreshold: p.TxThreshold, Blacklist: p.Blacklist, LockElision: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := verifySSA(h); err != nil {
				t.Fatalf("hardened: %v", err)
			}
		})
	}
}
