package workloads

// Table-driven regression tests pinning each benchmark to the
// characteristics the paper reports for it (Tables 2 and 3). These are
// the properties the whole evaluation rests on; if a workload change
// drifts out of its band, the reproduction quietly degrades — these
// tests make that loud. Bands are deliberately generous: the target is
// the paper's *shape*, not its absolute numbers.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/vm"
)

// characteristic describes the band a benchmark must stay in.
type characteristic struct {
	bench string
	// ILR overhead band at 8 threads (Table 2 column 1 shape).
	ilrMin, ilrMax float64
	// Coverage band in percent (Table 2 column 5).
	covMin, covMax float64
	// Dominant abort cause at transaction size 5000 (Table 3), or
	// CauseNone when the abort rate is too small to classify.
	dominant htm.Cause
	// Abort-rate band at size 5000, in percent.
	abortMin, abortMax float64
}

var characteristics = []characteristic{
	// Phoenix. Paper: histogram ILR 1.46 cov 95.7, other-dominated 1.1%.
	{"histogram", 1.1, 1.7, 90, 100, htm.CauseOther, 0.05, 3},
	// kmeans: conflict-dominated (99.9% of 4.5%).
	{"kmeans", 1.1, 1.8, 90, 100, htm.CauseConflict, 1, 15},
	{"kmeans-ns", 1.1, 1.8, 90, 100, htm.CauseNone, 0, 2},
	// linearreg: ILR 2.03 in the paper; high-ILP band, tiny aborts.
	{"linearreg", 1.3, 2.2, 90, 100, htm.CauseOther, 0.05, 2},
	// matrixmul: HAFT's best case; capacity-dominated aborts.
	{"matrixmul", 1.0, 1.35, 85, 100, htm.CauseCapacity, 0.3, 6},
	// pca: conflict-dominated (83% of 4.8%).
	{"pca", 1.1, 1.8, 70, 100, htm.CauseConflict, 2, 25},
	// stringmatch: near-zero aborts, other-dominated.
	{"stringmatch", 1.05, 1.8, 90, 100, htm.CauseOther, 0.02, 2},
	// wordcount: the false/true-sharing conflict benchmark (14.6%).
	{"wordcount", 1.1, 1.8, 85, 100, htm.CauseConflict, 8, 60},
	{"wordcount-ns", 1.1, 1.8, 90, 100, htm.CauseNone, 0, 3},
	// PARSEC. blackscholes: FP-latency-bound, ILR 1.17, ~0 aborts.
	{"blackscholes", 1.0, 1.3, 85, 100, htm.CauseNone, 0, 0.5},
	// canneal: lowest coverage (libstd++), tiny aborts.
	{"canneal", 1.1, 1.7, 55, 80, htm.CauseOther, 0, 1},
	// dedup: low coverage (libc), other-dominated.
	{"dedup", 1.0, 1.5, 60, 85, htm.CauseOther, 0, 2},
	// ferret: capacity-dominated.
	{"ferret", 1.0, 1.5, 90, 100, htm.CauseCapacity, 0.5, 8},
	// streamcluster: the conflict extreme.
	{"streamcluster", 1.1, 1.8, 75, 100, htm.CauseConflict, 20, 80},
	// swaptions: capacity-dominated at large sizes.
	{"swaptions", 1.2, 2.2, 90, 100, htm.CauseCapacity, 2, 30},
	// vips / x264: high native ILP. x264's capacity aborts are too few
	// at 8 threads for a stable dominance check (at 14 threads they
	// show up; see Table 3 in EXPERIMENTS.md), so only the rate band
	// is pinned here.
	{"vips", 1.2, 1.8, 90, 100, htm.CauseNone, 0, 1},
	{"x264", 1.3, 2.5, 90, 100, htm.CauseNone, 0.1, 4},
}

func TestBenchmarkCharacteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("characteristics sweep is slow")
	}
	const threads = 8
	for _, c := range characteristics {
		c := c
		t.Run(c.bench, func(t *testing.T) {
			t.Parallel()
			spec, err := ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			p := spec.Build(1)

			runWith := func(mode core.Mode, thr int64) *vm.Machine {
				mod := core.MustHarden(p.Module, core.Config{
					Mode: mode, Opt: core.OptFaultProp,
					TxThreshold: thr, Blacklist: p.Blacklist,
				})
				// Run-ahead turns: bit-identical to stepwise ones
				// (vm's TestRunAheadMatchesStepwise covers 8 threads),
				// and these bands pin the workloads, not the engine.
				mach := vm.NewFromProgram(vm.Compile(mod), threads, vm.DefaultConfig())
				hp := *p
				hp.Module = mod
				mach.Run(hp.SpecsFor(threads)...)
				if mach.Status() != vm.StatusOK {
					t.Fatalf("%v run: %v (%s)", mode, mach.Status(), mach.Stats().CrashReason)
				}
				return mach
			}

			nat := runWith(core.ModeNative, p.TxThreshold)
			ilr := runWith(core.ModeILR, p.TxThreshold)
			overhead := float64(ilr.Stats().Cycles) / float64(nat.Stats().Cycles)
			if overhead < c.ilrMin || overhead > c.ilrMax {
				t.Errorf("ILR overhead %.2f outside [%.2f, %.2f]", overhead, c.ilrMin, c.ilrMax)
			}

			haft := runWith(core.ModeHAFT, p.TxThreshold)
			cov := 100 * haft.Coverage()
			if cov < c.covMin || cov > c.covMax {
				t.Errorf("coverage %.1f%% outside [%.1f, %.1f]", cov, c.covMin, c.covMax)
			}

			big := runWith(core.ModeHAFT, 5000)
			rate := big.HTM.Stats.AbortRate()
			if rate < c.abortMin || rate > c.abortMax {
				t.Errorf("abort rate %.2f%% at size 5000 outside [%.2f, %.2f]",
					rate, c.abortMin, c.abortMax)
			}
			if c.dominant != htm.CauseNone {
				share := big.HTM.Stats.CauseShare(c.dominant)
				for _, other := range []htm.Cause{htm.CauseCapacity, htm.CauseConflict, htm.CauseOther} {
					if other == c.dominant {
						continue
					}
					if s := big.HTM.Stats.CauseShare(other); s > share {
						t.Errorf("abort cause %v (%.0f%%) dominates expected %v (%.0f%%)",
							other, s, c.dominant, share)
					}
				}
			}
		})
	}
}
