package workloads

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sei"
	"repro/internal/vm"
	"repro/internal/ycsb"
)

// caseStudies returns the §6 applications in registration order.
func caseStudies() []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Suite == "apps" {
			out = append(out, s)
		}
	}
	return out
}

func TestCaseStudiesRegistered(t *testing.T) {
	cs := caseStudies()
	if len(cs) != 5 {
		t.Fatalf("case studies = %d, want 5", len(cs))
	}
	// Case studies must not leak into the Figure 6 benchmark list.
	for _, s := range All() {
		if s.Suite == "apps" {
			t.Fatalf("app %s leaked into All()", s.Name)
		}
	}
}

func runApp(t *testing.T, p *Program, threads int, mode core.Mode, elide bool) *vm.Machine {
	t.Helper()
	mod := core.MustHarden(p.Module, core.Config{
		Mode: mode, Opt: core.OptFaultProp,
		TxThreshold: p.TxThreshold, Blacklist: p.Blacklist, LockElision: elide,
	})
	mach := vm.New(mod, threads, vmQuiet())
	hp := *p
	hp.Module = mod
	mach.Run(hp.SpecsFor(threads)...)
	if mach.Status() != vm.StatusOK {
		t.Fatalf("app run: %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	return mach
}

func TestAppsNativeAndHAFTAgree(t *testing.T) {
	for _, s := range caseStudies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := s.Build(0)
			nat := runApp(t, p, 2, core.ModeNative, false)
			haft := runApp(t, p, 2, core.ModeHAFT, false)
			if len(nat.Output()) == 0 {
				t.Fatal("no output")
			}
			if len(nat.Output()) != len(haft.Output()) || nat.Output()[0] != haft.Output()[0] {
				t.Fatalf("outputs differ: %v vs %v", nat.Output(), haft.Output())
			}
		})
	}
}

func TestMemcachedVariantsAgree(t *testing.T) {
	// Atomics and locks must compute the same checksum for the same
	// request stream.
	wl := ycsb.WorkloadA(256)
	ca := DefaultMcConfig(wl, SyncAtomics)
	ca.Requests = 1024
	cl := DefaultMcConfig(wl, SyncLocks)
	cl.Requests = 1024
	pa := Memcached(ca)
	pl := Memcached(cl)
	oa := runApp(t, pa, 2, core.ModeNative, false).Output()
	ol := runApp(t, pl, 2, core.ModeNative, false).Output()
	if oa[0] != ol[0] {
		t.Fatalf("atomics checksum %d != locks checksum %d", oa[0], ol[0])
	}
	// Lock elision must preserve the result too.
	oe := runApp(t, pl, 2, core.ModeHAFT, true).Output()
	if oe[0] != ol[0] {
		t.Fatalf("elision changed the result: %d vs %d", oe[0], ol[0])
	}
}

func TestLockElisionAvoidsRealLocks(t *testing.T) {
	wl := ycsb.WorkloadD(256)
	cfg := DefaultMcConfig(wl, SyncLocks)
	cfg.Requests = 1024
	p := Memcached(cfg)
	elided := runApp(t, p, 4, core.ModeHAFT, true)
	plain := runApp(t, p, 4, core.ModeHAFT, false)
	// With elision, throughput (inverse cycles) must be measurably
	// better than the no-elision build (§6.1: ~30%).
	if elided.Stats().Cycles >= plain.Stats().Cycles {
		t.Fatalf("elision not faster: %d vs %d cycles",
			elided.Stats().Cycles, plain.Stats().Cycles)
	}
}

func TestSQLiteConservativeIndirectCalls(t *testing.T) {
	p := BuildSQLite(0, ycsb.WorkloadA(128))
	nat := runApp(t, p, 2, core.ModeNative, false)
	haft := runApp(t, p, 2, core.ModeHAFT, false)
	ratio := float64(haft.Stats().Cycles) / float64(nat.Stats().Cycles)
	if ratio < 2.5 {
		t.Errorf("SQLite overhead %.2fx; the function-pointer penalty should make it ~3-4x", ratio)
	}
	// Apache, by contrast, hides in unprotected libraries.
	pa := BuildApache(0)
	natA := runApp(t, pa, 2, core.ModeNative, false)
	haftA := runApp(t, pa, 2, core.ModeHAFT, false)
	ratioA := float64(haftA.Stats().Cycles) / float64(natA.Stats().Cycles)
	if ratioA > 1.3 {
		t.Errorf("Apache overhead %.2fx; library time should keep it near 1.1x", ratioA)
	}
	if ratioA >= ratio {
		t.Error("Apache should have far lower overhead than SQLite")
	}
}

func TestSEIHardenedMemcachedPreservesPayload(t *testing.T) {
	cfg := DefaultMcConfig(ycsb.WorkloadA(128), SyncAtomics)
	cfg.Requests = 512
	p := Memcached(cfg)
	nat := runApp(t, p, 2, core.ModeNative, false)

	seiMod := p.Module.Clone()
	if n := sei.Apply(seiMod); n == 0 {
		t.Fatal("SEI hardened nothing (EventHandler attrs missing?)")
	}
	mach := vm.New(seiMod, 2, vmQuiet())
	hp := *p
	hp.Module = seiMod
	mach.Run(hp.SpecsFor(2)...)
	if mach.Status() != vm.StatusOK {
		t.Fatalf("SEI run: %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	got := mach.Output()
	// SEI appends a CRC message after the checksum: payload first.
	if len(got) < 1 || got[0] != nat.Output()[0] {
		t.Fatalf("SEI payload %v, native %v", got, nat.Output())
	}
	if len(got) != len(nat.Output())+1 {
		t.Fatalf("expected exactly one CRC message appended: %v", got)
	}
	// And SEI must be slower than native (it runs the handlers twice).
	if mach.Stats().Cycles <= nat.Stats().Cycles {
		t.Fatal("SEI not slower than native?")
	}
}
