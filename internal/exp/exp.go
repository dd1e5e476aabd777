// Package exp implements the experiment harness: one runner per table
// and figure of the paper's evaluation (§5) plus the repo's own
// instruction/cycle/SDC ladders (overhead, tmrcompare, fimodels, the
// vmexec engine differential), shared by the haftbench command and the
// repository's testing.B benchmarks.
//
// Everything here is deterministic: results are simulator cycles,
// instruction counts and seeded campaign outcomes, so two runs of one
// command produce the same output. Wall-clock numbers (req/s, latency,
// instrs/s, injections/s) come from bench/ only.
//
// Absolute numbers come from the machine simulator, not a Haswell
// testbed, so the harness reproduces *shapes*: who wins, by what
// rough factor, and where the crossovers are. EXPERIMENTS.md records
// paper-vs-measured values for every row.
package exp

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/markov"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Options parameterizes the harness.
type Options struct {
	// Scale is the input scale (1 = performance runs; 0 = smallest,
	// used for fault injection as in §5.1).
	Scale int
	// Threads is the thread ladder of Figure 6.
	Threads []int
	// PerfThreads is the thread count for single-point measurements
	// (the paper uses 14, the core count of its machine).
	PerfThreads int
	// FIThreads is the thread count for fault injections (paper: 2).
	FIThreads int
	// Injections is the number of faults per program per mode
	// (paper: 2,500; the default is scaled down to keep the harness
	// interactive — pass more for a full campaign).
	Injections int
	// MOE, if positive, lets multi-model campaigns stop early once
	// every model's per-outcome confidence-interval half-width falls
	// under this margin of error (e.g. 0.02).
	MOE float64
	// Seed makes campaigns reproducible.
	Seed int64
	// Benchmarks restricts the benchmark list (nil = all).
	Benchmarks []string
}

// DefaultOptions returns the interactive-scale defaults.
func DefaultOptions() Options {
	return Options{
		Scale:       1,
		Threads:     []int{1, 2, 4, 8, 14},
		PerfThreads: 14,
		FIThreads:   2,
		Injections:  150,
		Seed:        1,
	}
}

func (o Options) benchList() []workloads.Spec {
	if len(o.Benchmarks) == 0 {
		return workloads.All()
	}
	var out []workloads.Spec
	for _, n := range o.Benchmarks {
		s, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// parallelMap runs f over 0..n-1 concurrently (one goroutine each;
// the units are whole benchmark measurements) and returns the results
// in order. The experiment harness uses it the way the paper used its
// machine cluster: the measurements are independent.
func parallelMap[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = f(i)
		}(i)
	}
	wg.Wait()
	return out
}

// PerfStats is the measurement of one run.
type PerfStats struct {
	Cycles       uint64
	AbortRate    float64
	CauseShare   map[htm.Cause]float64
	Coverage     float64
	Commits      uint64
	FallbackRuns uint64
}

// measure runs the program under the given hardening mode and returns
// its stats. vmTweak may adjust the machine config (hyper-threading).
func measure(p *workloads.Program, mode core.Mode, opt core.OptLevel, threshold int64,
	threads int, vmTweak func(*vm.Config)) PerfStats {
	cfg := core.Config{Mode: mode, Opt: opt, TxThreshold: threshold, Blacklist: p.Blacklist}
	mod := core.MustHarden(p.Module, cfg)
	vcfg := vm.DefaultConfig()
	if vmTweak != nil {
		vmTweak(&vcfg)
	}
	mach := vm.NewFromProgram(vm.Compile(mod), threads, vcfg)
	hp := *p
	hp.Module = mod
	mach.Run(hp.SpecsFor(threads)...)
	if mach.Status() != vm.StatusOK {
		panic(fmt.Sprintf("exp: %s/%v run failed: %v (%s)",
			p.Entry, mode, mach.Status(), mach.Stats().CrashReason))
	}
	causes := map[htm.Cause]float64{}
	for _, c := range []htm.Cause{htm.CauseCapacity, htm.CauseConflict, htm.CauseExplicit, htm.CauseOther} {
		causes[c] = mach.HTM.Stats.CauseShare(c)
	}
	return PerfStats{
		Cycles:       mach.Stats().Cycles,
		AbortRate:    mach.HTM.Stats.AbortRate(),
		CauseShare:   causes,
		Coverage:     100 * mach.Coverage(),
		Commits:      mach.HTM.Stats.Committed,
		FallbackRuns: mach.HTM.Stats.FallbackRuns,
	}
}

// Fig6 regenerates Figure 6: normalized HAFT runtime over native for
// 1..14 threads, per benchmark, plus the mean.
func Fig6(o Options) *report.Series {
	s := report.NewSeries("Figure 6: HAFT normalized runtime vs native (rows: benchmark)", "benchmark")
	for _, th := range o.Threads {
		s.Labels = append(s.Labels, fmt.Sprintf("%dT", th))
	}
	sums := make([]float64, len(o.Threads))
	benches := o.benchList()
	rows := parallelMap(len(benches), func(i int) []float64 {
		p := benches[i].Build(o.Scale)
		ratios := make([]float64, len(o.Threads))
		for ti, th := range o.Threads {
			nat := measure(p, core.ModeNative, core.OptFaultProp, p.TxThreshold, th, nil)
			haft := measure(p, core.ModeHAFT, core.OptFaultProp, p.TxThreshold, th, nil)
			ratios[ti] = float64(haft.Cycles) / float64(nat.Cycles)
		}
		return ratios
	})
	count := 0
	for bi, spec := range benches {
		s.AddX(spec.Name)
		for ti, th := range o.Threads {
			ratio := rows[bi][ti]
			s.Y[fmt.Sprintf("%dT", th)] = append(s.Y[fmt.Sprintf("%dT", th)], ratio)
			sums[ti] += ratio
		}
		count++
	}
	s.AddX("mean")
	for ti, th := range o.Threads {
		s.Y[fmt.Sprintf("%dT", th)] = append(s.Y[fmt.Sprintf("%dT", th)], sums[ti]/float64(count))
	}
	return s
}

// Table2 regenerates Table 2: the ILR / TX / HAFT overhead breakdown,
// the hyper-threading abort-rate increase, and code coverage, at the
// full thread count.
func Table2(o Options) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Table 2: overheads, HT abort increase, coverage (%d threads)", o.PerfThreads),
		Header: []string{"benchmark", "ILR", "TX", "HAFT", "HTx", "Cov.%"},
	}
	th := o.PerfThreads
	benches := o.benchList()
	type row struct{ ilr, tx, haft, htx, cov float64 }
	rows := parallelMap(len(benches), func(i int) row {
		p := benches[i].Build(o.Scale)
		nat := measure(p, core.ModeNative, core.OptFaultProp, p.TxThreshold, th, nil)
		ilrS := measure(p, core.ModeILR, core.OptFaultProp, p.TxThreshold, th, nil)
		txS := measure(p, core.ModeTX, core.OptFaultProp, p.TxThreshold, th, nil)
		haftS := measure(p, core.ModeHAFT, core.OptFaultProp, p.TxThreshold, th, nil)
		htS := measure(p, core.ModeHAFT, core.OptFaultProp, p.TxThreshold, th,
			func(c *vm.Config) { c.HTM.HyperThreading = true })
		htx := 1.0
		if haftS.AbortRate > 0 {
			htx = htS.AbortRate / haftS.AbortRate
		} else if htS.AbortRate > 0 {
			htx = 99
		}
		return row{
			ilr:  float64(ilrS.Cycles) / float64(nat.Cycles),
			tx:   float64(txS.Cycles) / float64(nat.Cycles),
			haft: float64(haftS.Cycles) / float64(nat.Cycles),
			htx:  htx,
			cov:  haftS.Coverage,
		}
	})
	var sumILR, sumTX, sumHAFT, sumHT, sumCov float64
	n := 0
	for bi, spec := range benches {
		r := rows[bi]
		t.AddF(2, spec.Name, r.ilr, r.tx, r.haft, r.htx, r.cov)
		sumILR += r.ilr
		sumTX += r.tx
		sumHAFT += r.haft
		sumHT += r.htx
		sumCov += r.cov
		n++
	}
	fn := float64(n)
	t.AddF(2, "mean", sumILR/fn, sumTX/fn, sumHAFT/fn, sumHT/fn, sumCov/fn)
	return t
}

// Fig7 regenerates Figure 7: HAFT overhead under the cumulative
// optimization ladder N/S/C/L/F.
func Fig7(o Options) *report.Series {
	s := report.NewSeries(
		fmt.Sprintf("Figure 7: normalized runtime by optimization level (%d threads)", o.PerfThreads),
		"benchmark")
	benches := o.benchList()
	rows := parallelMap(len(benches), func(i int) []float64 {
		p := benches[i].Build(o.Scale)
		nat := measure(p, core.ModeNative, core.OptFaultProp, p.TxThreshold, o.PerfThreads, nil)
		var out []float64
		for _, opt := range core.OptLevels() {
			h := measure(p, core.ModeHAFT, opt, p.TxThreshold, o.PerfThreads, nil)
			out = append(out, float64(h.Cycles)/float64(nat.Cycles))
		}
		return out
	})
	for bi, spec := range benches {
		s.AddX(spec.Name)
		for oi, opt := range core.OptLevels() {
			s.Append(opt.String(), rows[bi][oi])
		}
	}
	return s
}

// Fig8Thresholds is the transaction-size sweep of Figure 8.
var Fig8Thresholds = []int64{250, 500, 1000, 3000, 5000}

// Fig8 regenerates Figure 8: normalized runtime (top) and transaction
// abort percentage (bottom) against the transaction-size threshold.
func Fig8(o Options) (overhead, aborts *report.Series) {
	overhead = report.NewSeries(
		fmt.Sprintf("Figure 8 (top): normalized runtime vs transaction size (%d threads)", o.PerfThreads),
		"benchmark")
	aborts = report.NewSeries(
		fmt.Sprintf("Figure 8 (bottom): transaction aborts %% vs transaction size (%d threads)", o.PerfThreads),
		"benchmark")
	benches := o.benchList()
	type row struct{ over, ab []float64 }
	rows := parallelMap(len(benches), func(i int) row {
		p := benches[i].Build(o.Scale)
		nat := measure(p, core.ModeNative, core.OptFaultProp, p.TxThreshold, o.PerfThreads, nil)
		var r row
		for _, thr := range Fig8Thresholds {
			h := measure(p, core.ModeHAFT, core.OptFaultProp, thr, o.PerfThreads, nil)
			r.over = append(r.over, float64(h.Cycles)/float64(nat.Cycles))
			r.ab = append(r.ab, h.AbortRate)
		}
		return r
	})
	for bi, spec := range benches {
		overhead.AddX(spec.Name)
		aborts.AddX(spec.Name)
		for ti, thr := range Fig8Thresholds {
			lbl := fmt.Sprintf("%d", thr)
			overhead.Append(lbl, rows[bi].over[ti])
			aborts.Append(lbl, rows[bi].ab[ti])
		}
	}
	return overhead, aborts
}

// Table3 regenerates Table 3: abort rates and causes at the worst-case
// transaction size of 5,000.
func Table3(o Options) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Table 3: abort rate and causes at size 5000 (%d threads)", o.PerfThreads),
		Header: []string{"benchmark", "abort%", "capacity%", "conflict%", "other%"},
	}
	benches := o.benchList()
	rows := parallelMap(len(benches), func(i int) PerfStats {
		p := benches[i].Build(o.Scale)
		return measure(p, core.ModeHAFT, core.OptFaultProp, 5000, o.PerfThreads, nil)
	})
	for bi, spec := range benches {
		h := rows[bi]
		other := h.CauseShare[htm.CauseOther] + h.CauseShare[htm.CauseExplicit]
		t.AddF(2, spec.Name, h.AbortRate,
			h.CauseShare[htm.CauseCapacity], h.CauseShare[htm.CauseConflict], other)
	}
	return t
}

// fiTarget prepares a fault-injection target for a benchmark/mode.
func fiTarget(spec workloads.Spec, mode core.Mode, opt core.OptLevel, o Options) *fault.Target {
	p := spec.Build(0) // smallest inputs, as in §5.1
	cfg := core.Config{Mode: mode, Opt: opt, TxThreshold: p.TxThreshold, Blacklist: p.Blacklist}
	mod := core.MustHarden(p.Module, cfg)
	hp := *p
	hp.Module = mod
	return &fault.Target{
		Name:    spec.Name + "/" + mode.String(),
		Module:  mod,
		Threads: o.FIThreads,
		VM:      vm.DefaultConfig(),
		Specs:   hp.SpecsFor(o.FIThreads),
	}
}

// FIOutcome bundles the per-mode campaign results of one benchmark.
type FIOutcome struct {
	Bench  string
	Native *fault.ModelResult
	ILR    *fault.ModelResult
	HAFT   *fault.ModelResult
}

// Fig9 regenerates Figure 9 (left): fault-injection reliability for
// native, ILR and HAFT versions of each benchmark.
func Fig9(o Options) ([]FIOutcome, *report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 9: fault injection results (%d injections, %d threads)",
			o.Injections, o.FIThreads),
		Header: []string{"benchmark", "version", "crashed%", "correct%", "corrupted%", "corrected%", "masked%"},
	}
	var outs []FIOutcome
	for _, spec := range o.benchList() {
		out := FIOutcome{Bench: spec.Name}
		for _, mode := range []core.Mode{core.ModeNative, core.ModeILR, core.ModeHAFT} {
			tg := fiTarget(spec, mode, core.OptFaultProp, o)
			res, err := fault.Campaign(tg, o.Injections, o.Seed)
			if err != nil {
				return nil, nil, err
			}
			switch mode {
			case core.ModeNative:
				out.Native = res
			case core.ModeILR:
				out.ILR = res
			case core.ModeHAFT:
				out.HAFT = res
			}
			t.AddF(1, spec.Name, mode.String(),
				res.ClassRate(fault.ClassCrashed),
				res.ClassRate(fault.ClassCorrect),
				res.ClassRate(fault.ClassCorrupted),
				res.Rate(fault.OutcomeHAFTCorrected),
				res.Rate(fault.OutcomeMasked))
		}
		outs = append(outs, out)
	}
	return outs, t, nil
}

// Fig9Opts regenerates Figure 9 (right): the impact of the
// optimization ladder on the reliability of linearreg and canneal.
func Fig9Opts(o Options) (*report.Table, error) {
	t := &report.Table{
		Title:  fmt.Sprintf("Figure 9 (right): reliability by optimization (%d injections)", o.Injections),
		Header: []string{"benchmark", "opts", "crashed%", "correct%", "corrupted%"},
	}
	for _, name := range []string{"linearreg", "canneal"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, opt := range core.OptLevels() {
			tg := fiTarget(spec, core.ModeHAFT, opt, o)
			res, err := fault.Campaign(tg, o.Injections, o.Seed)
			if err != nil {
				return nil, err
			}
			t.AddF(1, name, opt.String(),
				res.ClassRate(fault.ClassCrashed),
				res.ClassRate(fault.ClassCorrect),
				res.ClassRate(fault.ClassCorrupted))
		}
	}
	return t, nil
}

// ModelParams aggregates Figure 9 campaigns into the Table 4 fault
// probabilities for one architecture.
func ModelParams(results []*fault.ModelResult) markov.Params {
	var masked, sdc, crashed, corrected float64
	for _, r := range results {
		masked += r.Rate(fault.OutcomeMasked)
		sdc += r.Rate(fault.OutcomeSDC)
		crashed += r.ClassRate(fault.ClassCrashed)
		corrected += r.Rate(fault.OutcomeHAFTCorrected)
	}
	n := float64(len(results))
	p := markov.Params{
		PMasked:      masked / n / 100,
		PSDC:         sdc / n / 100,
		PCrashed:     crashed / n / 100,
		PCorrectable: corrected / n / 100,
	}
	// Normalize tiny rounding drift.
	tot := p.PMasked + p.PSDC + p.PCrashed + p.PCorrectable
	p.PMasked /= tot
	p.PSDC /= tot
	p.PCrashed /= tot
	p.PCorrectable /= tot
	p.PaperRecoveryTimes()
	return p
}

// Table4 regenerates Table 4 from measured campaigns (falling back to
// a small benchmark subset to stay interactive).
func Table4(o Options) (native, ilr, haft markov.Params, tbl *report.Table, err error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"histogram", "linearreg", "stringmatch", "blackscholes"}
	}
	outs, _, err := Fig9(o)
	if err != nil {
		return native, ilr, haft, nil, err
	}
	var nr, ir2, hr []*fault.ModelResult
	for _, out := range outs {
		nr = append(nr, out.Native)
		ir2 = append(ir2, out.ILR)
		hr = append(hr, out.HAFT)
	}
	native = ModelParams(nr)
	ilr = ModelParams(ir2)
	ilr.DetectsCorruption = true
	haft = ModelParams(hr)
	haft.DetectsCorruption = true

	tbl = &report.Table{
		Title:  "Table 4: fault probabilities (%) for the HAFT model",
		Header: []string{"probability", "native", "ILR", "HAFT"},
	}
	tbl.AddF(1, "Masked", 100*native.PMasked, 100*ilr.PMasked, 100*haft.PMasked)
	tbl.AddF(1, "SDC", 100*native.PSDC, 100*ilr.PSDC, 100*haft.PSDC)
	tbl.AddF(1, "Crashed", 100*native.PCrashed, 100*ilr.PCrashed, 100*haft.PCrashed)
	tbl.AddF(1, "HAFT-correctable", 100*native.PCorrectable, 100*ilr.PCorrectable, 100*haft.PCorrectable)
	return native, ilr, haft, tbl, nil
}

// Fig10Rates is the fault-rate sweep of Figure 10.
var Fig10Rates = []float64{0.00028, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}

// Fig10 regenerates Figure 10 from model parameters (use Table4 for
// measured ones, or PaperTable4 for the published row).
func Fig10(native, ilr, haft markov.Params) (avail, corrupt *report.Series, err error) {
	avail = report.NewSeries("Figure 10 (left): availability in 1 hour (%)", "faults/s")
	corrupt = report.NewSeries("Figure 10 (right): corruption in 1 hour (%)", "faults/s")
	for _, rate := range Fig10Rates {
		avail.AddX(fmt.Sprintf("%.5g", rate))
		corrupt.AddX(fmt.Sprintf("%.5g", rate))
		for _, pc := range []struct {
			label string
			p     markov.Params
		}{{"native", native}, {"ILR", ilr}, {"HAFT", haft}} {
			p := pc.p
			p.FaultRate = rate
			a, c, err := p.Evaluate(3600)
			if err != nil {
				return nil, nil, err
			}
			avail.Append(pc.label, 100*a)
			corrupt.Append(pc.label, 100*c)
		}
	}
	return avail, corrupt, nil
}

// PaperTable4 returns the published Table 4 parameters.
func PaperTable4() (native, ilr, haft markov.Params) {
	native = markov.Params{PMasked: 0.613, PSDC: 0.262, PCrashed: 0.125}
	ilr = markov.Params{PMasked: 0.242, PSDC: 0.008, PCrashed: 0.750, DetectsCorruption: true}
	haft = markov.Params{PMasked: 0.242, PSDC: 0.011, PCrashed: 0.077, PCorrectable: 0.670, DetectsCorruption: true}
	for _, p := range []*markov.Params{&native, &ilr, &haft} {
		p.PaperRecoveryTimes()
	}
	return native, ilr, haft
}
