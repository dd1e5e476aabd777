package fault

import (
	"reflect"
	"testing"

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

const prog = `
global buf bytes=512 align=64
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v5 [loop]
  v1 = mul v0, #37
  v2 = xor v1, v0
  v3 = mul v0, #8
  v6 = add v3, #4096
  store v6, v2
  v5 = add v0, #1
  v7 = cmp lt v5, #64
  br v7, loop, sum
sum:
  jmp sl
sl:
  v8 = phi #0 [sum], v12 [sl]
  v9 = phi #0 [sum], v11 [sl]
  v10 = mul v8, #8
  v13 = add v10, #4096
  v14 = load v13
  v11 = add v9, v14
  v12 = add v8, #1
  v15 = cmp lt v12, #64
  br v15, sl, done
done:
  out v11
  ret
}
`

func target(t testing.TB, mode core.Mode) *Target {
	t.Helper()
	native := ir.MustParse(prog)
	mod, err := core.Harden(native, core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &Target{
		Name:    "synthetic/" + mode.String(),
		Module:  mod,
		Threads: 1,
		VM:      vmQuiet(),
		Specs:   []vm.ThreadSpec{{Func: "main"}},
	}
}

func TestOutcomeClassesComplete(t *testing.T) {
	seen := map[Class]bool{}
	for _, o := range Outcomes() {
		seen[o.Class()] = true
		if o.String() == "outcome?" {
			t.Errorf("outcome %d unnamed", o)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("classes covered: %v", seen)
	}
	if OutcomeHAFTCorrected.Class() != ClassCorrect ||
		OutcomeILRDetected.Class() != ClassCrashed ||
		OutcomeSDC.Class() != ClassCorrupted {
		t.Fatal("Table 1 grouping wrong")
	}
}

func TestCampaignDeterministicWithSeed(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	a, err := Campaign(tg, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(tg, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Fatalf("same seed, different results: %v vs %v", a.Counts, b.Counts)
	}
	c, _ := Campaign(tg, 30, 8)
	if a.Counts == c.Counts {
		t.Log("different seeds gave identical counts (possible but unlikely)")
	}
}

func TestCampaignShapesAcrossModes(t *testing.T) {
	const n = 150
	nat, err := Campaign(target(t, core.ModeNative), n, 42)
	if err != nil {
		t.Fatal(err)
	}
	ilrRes, err := Campaign(target(t, core.ModeILR), n, 42)
	if err != nil {
		t.Fatal(err)
	}
	haftRes, err := Campaign(target(t, core.ModeHAFT), n, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("native: %v", nat.Counts)
	t.Logf("ilr:    %v", ilrRes.Counts)
	t.Logf("haft:   %v", haftRes.Counts)

	// Figure 9 shapes: native has substantial SDCs; ILR nearly
	// eliminates them but crashes a lot; HAFT keeps SDCs low AND
	// recovers most detected faults.
	if nat.ClassRate(ClassCorrupted) < 3 {
		t.Errorf("native SDC rate %.1f%%, expected noticeable corruption", nat.ClassRate(ClassCorrupted))
	}
	if ilrRes.ClassRate(ClassCorrupted) > nat.ClassRate(ClassCorrupted)/2 {
		t.Errorf("ILR corruption %.1f%% not well below native %.1f%%",
			ilrRes.ClassRate(ClassCorrupted), nat.ClassRate(ClassCorrupted))
	}
	if ilrRes.ClassRate(ClassCrashed) < nat.ClassRate(ClassCrashed) {
		t.Errorf("ILR crash rate %.1f%% should exceed native %.1f%% (fail-stop)",
			ilrRes.ClassRate(ClassCrashed), nat.ClassRate(ClassCrashed))
	}
	if haftRes.ClassRate(ClassCorrect) <= ilrRes.ClassRate(ClassCorrect) {
		t.Errorf("HAFT correct %.1f%% should exceed ILR %.1f%% (recovery)",
			haftRes.ClassRate(ClassCorrect), ilrRes.ClassRate(ClassCorrect))
	}
	if haftRes.Counts[OutcomeHAFTCorrected] == 0 {
		t.Error("HAFT corrected nothing")
	}
	if ilrRes.Counts[OutcomeHAFTCorrected] != 0 {
		t.Error("ILR-only cannot have HAFT-corrected outcomes")
	}
	if haftRes.ClassRate(ClassCorrupted) > 10 {
		t.Errorf("HAFT corruption %.1f%% too high", haftRes.ClassRate(ClassCorrupted))
	}
}

func TestCampaignRejectsBrokenReference(t *testing.T) {
	m := ir.MustParse("func main(0) {\nentry:\n  trap\n}")
	tg := &Target{Name: "bad", Module: m, Threads: 1, VM: vmQuiet(),
		Specs: []vm.ThreadSpec{{Func: "main"}}}
	if _, err := Campaign(tg, 1, 1); err == nil {
		t.Fatal("Campaign accepted a crashing reference run")
	}
}

func TestRatesSumTo100(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	r, err := Campaign(tg, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, o := range Outcomes() {
		sum += r.Rate(o)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("outcome rates sum to %v", sum)
	}
	csum := r.ClassRate(ClassCrashed) + r.ClassRate(ClassCorrect) + r.ClassRate(ClassCorrupted)
	if csum < 99.9 || csum > 100.1 {
		t.Fatalf("class rates sum to %v", csum)
	}
}

func TestSiteProfileRecorded(t *testing.T) {
	tg := target(t, core.ModeNative)
	r, err := Campaign(tg, 80, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sites) == 0 {
		t.Fatal("no sites recorded")
	}
	siteTotal := 0
	for _, s := range r.Sites {
		siteTotal += s.Total
	}
	if siteTotal != r.Total {
		t.Fatalf("site totals %d != %d injections", siteTotal, r.Total)
	}
	// Native runs of this store-heavy program must expose vulnerable
	// sites.
	vulnerable := 0
	for _, s := range r.Sites {
		if s.SDCs() > 0 {
			vulnerable++
		}
	}
	if vulnerable == 0 {
		t.Fatal("no vulnerable sites in the native build")
	}
}

// TestParallelCampaignMatchesSerial: every run derives its RNG from
// (seed, index), so the fold must not depend on the worker count.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	tg := target(t, core.ModeHAFT)
	cfg := CampaignConfig{Models: []Model{ModelRegister}, Injections: 40, Seed: 17, Segments: 1}
	par, err := RunCampaign(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	ser, err := RunCampaign(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.PerModel, ser.PerModel) {
		t.Fatalf("parallel %+v != serial %+v", par.PerModel[0], ser.PerModel[0])
	}
}
