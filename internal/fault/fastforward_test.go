package fault

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// ffWorkload is long enough for a reference run of several snapshots in
// every mode, and leaves most of what it computes unused (seven of
// eight mix results, array cells overwritten before they are read), so
// that a good share of the faults are masked and the run re-converges
// with the reference.
const ffWorkload = `
global arr[64];
func mix(x) local {
  var h = x * 2654435761;
  return h ^ (h >> 13);
}
func main() {
  var i = 0;
  var acc = 7;
  while (i < ITERS) {
    var t = mix(i + acc);
    arr[i & 63] = t;
    if ((i & 7) == 0) {
      acc = acc + arr[(i + 5) & 63];
    }
    i = i + 1;
  }
  out(acc);
  out(arr[2]);
  out(arr[9]);
}
`

func ffTarget(t *testing.T, mode core.Mode, interpret bool) *Target {
	return ffTargetN(t, mode, interpret, 2500)
}

func ffTargetN(t *testing.T, mode core.Mode, interpret bool, iters int) *Target {
	t.Helper()
	m, err := lang.Compile(strings.Replace(ffWorkload, "ITERS", strconv.Itoa(iters), 1))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	hm, err := core.Harden(m, core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: 300})
	if err != nil {
		t.Fatalf("harden: %v", err)
	}
	return &Target{
		Name:      "ff/" + mode.String(),
		Module:    hm,
		Threads:   1,
		VM:        vm.DefaultConfig(),
		Specs:     []vm.ThreadSpec{{Func: "main"}},
		Interpret: interpret,
	}
}

// fromScratch is the run the fast-forward engine replaced: a new
// machine, the run's plans armed from the first instruction, executed to
// the end.
func fromScratch(c *injector, i int) runRecord {
	cfg := c.cfg
	model := cfg.Models[i%len(cfg.Models)]
	seg := (i / len(cfg.Models)) % cfg.Segments
	rng := rand.New(rand.NewSource(runSeed(cfg.Seed, i)))
	plans := plansFor(model, cfg.Flow, rng, c.pops[model], seg, cfg.Segments)
	mach := c.t.newMachine()
	mach.Cfg.MaxDynInstrs = c.budget
	mach.SetFaultPlans(plans)
	mach.Run(c.t.Specs...)
	rec := finishedRecord(mach, c.ref.out)
	rec.executed = mach.Stats().DynInstrs
	for _, p := range plans {
		if p.Injected {
			rec.site = p.Where
			break
		}
	}
	return rec
}

// TestFastForwardCertified: for all six fault models, every hardening
// mode and both engines, each run of the campaign engine — started at a
// snapshot, possibly ended early — produces the record of the same run
// executed from scratch, and early exits do happen.
func TestFastForwardCertified(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every injection twice")
	}
	for _, mode := range []core.Mode{core.ModeNative, core.ModeILR, core.ModeHAFT, core.ModeTMR} {
		for _, interpret := range []bool{false, true} {
			name := mode.String() + "/compiled"
			if interpret {
				name = mode.String() + "/step"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				c, err := newInjector(ffTarget(t, mode, interpret), CampaignConfig{
					Models: AllModels(), Injections: 60, Seed: 20260929, Workers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(c.ref.snaps) < 4 {
					t.Fatalf("reference run has %d snapshots; fast-forward is not exercised", len(c.ref.snaps))
				}
				w := c.worker(0, nil)
				early, skipped := 0, uint64(0)
				for i := 0; i < c.cfg.Injections; i++ {
					got, want := c.inject(w, i), fromScratch(c, i)
					if got.outcome != want.outcome || got.site != want.site ||
						got.recovered != want.recovered || got.corrected != want.corrected ||
						!reflect.DeepEqual(got.htm, want.htm) {
						t.Errorf("run %d (%v): fast-forward %+v, from scratch %+v",
							i, c.cfg.Models[i%len(c.cfg.Models)], got, want)
					}
					if got.skipped+got.executed != want.executed {
						t.Errorf("run %d: skipped %d + executed %d instructions, the whole run has %d",
							i, got.skipped, got.executed, want.executed)
					}
					skipped += got.skipped
					if got.early {
						early++
						if got.outcome != OutcomeMasked {
							t.Errorf("run %d ended early as %v", i, got.outcome)
						}
					}
				}
				if skipped == 0 {
					t.Error("no run skipped any instruction")
				}
				if early == 0 {
					t.Error("no run ended early on re-converging with the reference")
				}
			})
		}
	}
}

// TestReferenceSnapshotsThinned: the reference run keeps a bounded
// number of equally spaced snapshots however long it is, and the first
// one is the state before the first instruction.
func TestReferenceSnapshotsThinned(t *testing.T) {
	c, err := newInjector(ffTargetN(t, core.ModeTMR, false, 9000), CampaignConfig{
		Models: []Model{ModelRegister}, Injections: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := c.ref
	if n := len(ref.snaps); n > maxSnapshots || uint64(n) != ref.stats.DynInstrs/ref.stride+1 {
		t.Fatalf("%d snapshots at stride %d over %d instructions", n, ref.stride, ref.stats.DynInstrs)
	}
	if ref.stride <= firstStride {
		t.Fatalf("stride %d never doubled; the workload is too short to test thinning", ref.stride)
	}
	for k, s := range ref.snaps {
		at := s.Stats().DynInstrs
		if k == 0 && at != 0 || k > 0 && (at <= uint64(k)*ref.stride || at > uint64(k)*ref.stride+64) {
			t.Errorf("snapshot %d was taken at instruction %d, stride %d", k, at, ref.stride)
		}
	}
}

// TestCampaignTracedSeesWholeRuns: with a ring attached every run is
// executed from the first instruction to its end, and the results are
// those of the untraced campaign.
func TestCampaignTracedSeesWholeRuns(t *testing.T) {
	cfg := CampaignConfig{Models: AllModels(), Injections: 36, Seed: 5, Workers: 2}
	plain, err := RunCampaign(ffTarget(t, core.ModeHAFT, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = obs.NewRing(1 << 10)
	traced, err := RunCampaign(ffTarget(t, core.ModeHAFT, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.skippedInstrs != 0 || traced.earlyMasked != 0 {
		t.Errorf("traced campaign skipped %d instructions and ended %d runs early",
			traced.skippedInstrs, traced.earlyMasked)
	}
	if plain.skippedInstrs == 0 {
		t.Error("untraced campaign skipped nothing")
	}
	a, _ := plain.Checkpoint()
	b, _ := traced.Checkpoint()
	if !bytes.Equal(a, b) {
		t.Errorf("traced and untraced campaigns differ:\n%s\nvs\n%s", a, b)
	}
}

// TestCampaignFastForwardMetrics: the saving is published through the
// progress registry, and — folded in run-index order — does not depend
// on the number of workers; so is the memory of the reference snapshots,
// which share the blocks that did not change between them, in total and
// by part, the parts adding up to the total.
func TestCampaignFastForwardMetrics(t *testing.T) {
	scrape := func(workers int) (string, *CampaignResult) {
		reg := obs.NewRegistry()
		DeclareCampaignMetrics(reg)
		res, err := RunCampaign(ffTarget(t, core.ModeHAFT, false), CampaignConfig{
			Models: AllModels(), Injections: 48, Seed: 11, Workers: workers, Batch: 12, Progress: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		reg.WriteProm(&sb)
		var lines []string
		total, parts := -1.0, 0.0
		for _, l := range strings.Split(sb.String(), "\n") {
			if strings.Contains(l, "_instrs_total") || strings.Contains(l, "early_masked_total") ||
				strings.Contains(l, "haft_campaign_ref_") {
				lines = append(lines, l)
			}
			name, val, ok := strings.Cut(l, " ")
			if !ok || strings.HasPrefix(l, "#") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			switch {
			case err != nil:
				continue
			case name == `haft_campaign_ref_snapshot_bytes{program="ff/haft"}`:
				total = v
			case strings.HasPrefix(name, "haft_campaign_ref_snapshot_part_bytes{"):
				parts += v
			}
		}
		if total <= 0 || parts != total {
			t.Errorf("%d workers: the snapshot parts sum to %v bytes, the total is %v", workers, parts, total)
		}
		return strings.Join(lines, "\n"), res
	}
	one, res := scrape(1)
	four, _ := scrape(4)
	if one != four {
		t.Errorf("metrics depend on the worker count:\n%s\nvs\n%s", one, four)
	}
	b := res.refSnapshotBytes
	for _, want := range []string{
		"# TYPE haft_campaign_skipped_instrs_total counter",
		"# TYPE haft_campaign_executed_instrs_total counter",
		"# TYPE haft_campaign_early_masked_total counter",
		`haft_campaign_early_masked_total{program="ff/haft"} `,
		"# TYPE haft_campaign_ref_snapshots gauge",
		"# TYPE haft_campaign_ref_stride gauge",
		"# TYPE haft_campaign_ref_snapshot_bytes gauge",
		"# TYPE haft_campaign_ref_snapshot_part_bytes gauge",
		fmt.Sprintf(`haft_campaign_ref_snapshots{program="ff/haft"} %d`, res.refSnapshots),
		fmt.Sprintf(`haft_campaign_ref_stride{program="ff/haft"} %d`, res.refStride),
		fmt.Sprintf(`haft_campaign_ref_snapshot_bytes{program="ff/haft"} %d`, b.Total()),
		fmt.Sprintf(`haft_campaign_ref_snapshot_part_bytes{program="ff/haft",part="memory"} %d`, b.Memory),
		fmt.Sprintf(`haft_campaign_ref_snapshot_part_bytes{program="ff/haft",part="tags"} %d`, b.Tags),
		fmt.Sprintf(`haft_campaign_ref_snapshot_part_bytes{program="ff/haft",part="registers"} %d`, b.Registers),
		fmt.Sprintf(`haft_campaign_ref_snapshot_part_bytes{program="ff/haft",part="htm"} %d`, b.HTM),
	} {
		if !strings.Contains(one, want) {
			t.Errorf("scrape lacks %q:\n%s", want, one)
		}
	}
	if res.skippedInstrs == 0 || res.earlyMasked == 0 || res.executedInstrs == 0 {
		t.Errorf("skipped %d executed %d early %d: a counter stayed zero",
			res.skippedInstrs, res.executedInstrs, res.earlyMasked)
	}
	if res.skippedInstrs < res.executedInstrs/4 {
		t.Errorf("skipped only %d of %d instructions", res.skippedInstrs, res.skippedInstrs+res.executedInstrs)
	}
	if b.Memory == 0 || b.Tags == 0 || b.Registers == 0 {
		t.Errorf("snapshot bytes %+v: a part the reference run always holds is zero", b)
	}

	// The gauges are the reference run's; its snapshots, each counted
	// whole, hold at least the shared total the gauge shows.
	c, err := newInjector(ffTarget(t, core.ModeHAFT, false), CampaignConfig{Models: AllModels(), Injections: 1})
	if err != nil {
		t.Fatal(err)
	}
	whole := 0
	for _, s := range c.ref.snaps {
		whole += s.Bytes(nil).Total()
	}
	if res.refSnapshots != uint64(len(c.ref.snaps)) || res.refStride != c.ref.stride ||
		b != c.ref.bytes || c.ref.bytes.Total() > whole || len(c.ref.snaps) < 4 {
		t.Errorf("gauges %d snapshots, stride %d, %+v bytes; the reference run has %d, %d, %+v bytes shared of %d",
			res.refSnapshots, res.refStride, b, len(c.ref.snaps), c.ref.stride, c.ref.bytes, whole)
	}
}

// TestCampaignResumeRejectsOtherReference: a checkpoint whose spec
// matches but which was taken against another target or another
// reference run must not be continued.
func TestCampaignResumeRejectsOtherReference(t *testing.T) {
	cfg := CampaignConfig{Models: []Model{ModelRegister, ModelMemory}, Injections: 20, Seed: 21, Batch: 20, Workers: 2}
	haftTarget := target(t, core.ModeHAFT)
	first, err := RunCampaign(haftTarget, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resume := func(tg *Target) error {
		ck, err := LoadCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Injections = 40
		c.Resume = ck
		_, err = RunCampaign(tg, c)
		return err
	}
	if err := resume(haftTarget); err != nil {
		t.Fatalf("resume on the checkpoint's own target: %v", err)
	}

	other := target(t, core.ModeNative)
	if err := resume(other); err == nil || !strings.Contains(err.Error(), `"synthetic/haft", not "synthetic/native"`) {
		t.Errorf("resume on another target: error %v, want one naming both campaigns", err)
	}
	// Same name, another program: the reference run differs.
	other.Name = haftTarget.Name
	if err := resume(other); err == nil || !strings.Contains(err.Error(), "ref_reg_writes") {
		t.Errorf("resume against another reference run: error %v, want one naming ref_reg_writes", err)
	}
	// Same program, another VM configuration: only the cycle count moves.
	slow := target(t, core.ModeHAFT)
	slow.VM.IssueWidth = 1
	if err := resume(slow); err == nil || !strings.Contains(err.Error(), "ref_cycles") {
		t.Errorf("resume under another VM configuration: error %v, want one naming ref_cycles", err)
	}
}

// workloadTarget is a benchmark program at its smallest input, hardened
// by HAFT and run on two threads, as the campaign benchmark runs it.
func workloadTarget(t *testing.T, name string) *Target {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Build(0)
	mod, err := core.Harden(p.Module, core.Config{Mode: core.ModeHAFT, Opt: core.OptFaultProp,
		TxThreshold: p.TxThreshold, Blacklist: p.Blacklist})
	if err != nil {
		t.Fatal(err)
	}
	hp := *p
	hp.Module = mod
	return &Target{Name: name + "/haft", Module: mod, Threads: 2, VM: vm.DefaultConfig(), Specs: hp.SpecsFor(2)}
}

// TestFiredPlansLeaveScanningPath: once a run's fault plans have all
// fired it runs on the machine's fault-free path. For every model, each
// run is paired with the same run armed with one more plan that never
// fires, which keeps it on the plan-scanning path: from the boundary on
// where the first has no plan pending, the two machines are equal at
// every boundary, and they end with the same record. Independently of
// the pending count, a register plan whose index the run has passed has
// fired.
func TestFiredPlansLeaveScanningPath(t *testing.T) {
	c, err := newInjector(workloadTarget(t, "histogram"), CampaignConfig{
		Models: AllModels(), Injections: 36, Seed: 20261017, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := c.ref
	fast, scan := c.t.newMachine(), c.t.newMachine()
	fast.Cfg.MaxDynInstrs, scan.Cfg.MaxDynInstrs = c.budget, c.budget
	rng := rand.New(rand.NewSource(0))
	compared, doubles := 0, 0
	for i := 0; i < c.cfg.Injections; i++ {
		model := c.cfg.Models[i%len(c.cfg.Models)]
		seg := (i / len(c.cfg.Models)) % c.cfg.Segments
		rng.Seed(runSeed(c.cfg.Seed, i))
		plans := plansFor(model, c.cfg.Flow, rng, c.pops[model], seg, c.cfg.Segments)
		var twin []*vm.FaultPlan
		for _, p := range plans {
			q := *p
			twin = append(twin, &q)
		}
		twin = append(twin, &vm.FaultPlan{Model: vm.FaultBranch, TargetIndex: math.MaxUint64})

		fast.Restore(ref.snaps[0])
		fast.SetFaultPlans(plans)
		scan.Restore(ref.snaps[0])
		scan.SetFaultPlans(twin)
		for k := 1; ; k++ {
			pause := uint64(math.MaxUint64)
			if k < len(ref.snaps) {
				pause = uint64(k) * ref.stride
			}
			ended, scanEnded := fast.RunUntil(pause), scan.RunUntil(pause)
			if ended != scanEnded {
				t.Fatalf("run %d (%v): one machine ended at boundary %d, the other did not", i, model, k)
			}
			if got, want := fast.PendingFaults(), scan.PendingFaults()-1; got != want {
				t.Fatalf("run %d (%v): %d plans pending at boundary %d, the scanning twin has %d besides the extra one",
					i, model, got, k, want)
			}
			if fast.PendingFaults() == 0 {
				if !fast.Equal(scan.Snapshot()) {
					t.Fatalf("run %d (%v): machines differ at boundary %d after every plan fired", i, model, k)
				}
				compared++
			}
			if ended {
				break
			}
		}
		got, want := finishedRecord(fast, ref.out), finishedRecord(scan, ref.out)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%v): record %+v, scanning twin %+v", i, model, got, want)
		}
		for j, p := range plans {
			if p.Injected != twin[j].Injected || p.Where != twin[j].Where {
				t.Errorf("run %d (%v): plan %d fired %v at %q, in the twin %v at %q",
					i, model, j, p.Injected, p.Where, twin[j].Injected, twin[j].Where)
			}
			if p.Model == vm.FaultRegister && p.TargetIndex < fast.Stats().RegWrites && !p.Injected {
				t.Errorf("run %d (%v): plan %d at register write %d did not fire in a run of %d",
					i, model, j, p.TargetIndex, fast.Stats().RegWrites)
			}
		}
		if model == ModelDouble && plans[0].Injected && plans[1].Injected {
			doubles++
		}
	}
	t.Logf("%d boundaries compared over %d runs; %d double faults fired both flips", compared, c.cfg.Injections, doubles)
	if compared < c.cfg.Injections || doubles == 0 {
		t.Fatalf("%d boundaries compared over %d runs, %d double faults fired both flips: the test is not exercised",
			compared, c.cfg.Injections, doubles)
	}
}
