package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ilr"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/tmr"
	"repro/internal/tx"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The exec-ladder programs and why each is there.
var ladderPrograms = []string{
	"histogram",    // memory-bound, short
	"kmeans",       // largest dynamic instruction count, floating point
	"linearreg",    // ALU chains, the best case for fusion
	"matrixmul",    // HTM capacity aborts
	"wordcount",    // branchy hashing
	"blackscholes", // PARSEC, floating-point intrinsics
}

var ladderModes = []core.Mode{core.ModeNative, core.ModeILR, core.ModeHAFT, core.ModeTMR}

const (
	ladderScale   = 1
	ladderThreads = 2
	// probeReps is how many times a sub-millisecond probe is repeated;
	// its median is reported.
	probeReps = 25
)

func hardenConfig(p *workloads.Program, mode core.Mode) core.Config {
	return core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: p.TxThreshold, Blacklist: p.Blacklist}
}

func vmConfig(seed int64) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.Seed = seed
	return cfg
}

// cell is one program under one hardening mode, ready to run.
type cell struct {
	prog  string
	mode  core.Mode
	src   *workloads.Program
	mod   *ir.Module
	mach  *vm.Machine
	specs []vm.ThreadSpec
}

func (c *cell) String() string { return c.prog + "/" + c.mode.String() }

// buildCell is the compiled-engine path every caller of the ladder
// takes: Harden, Compile, NewFromProgram. With a tracer it records one
// span per step under parent.
func buildCell(prog string, src *workloads.Program, mode core.Mode, seed int64, tr *tracer, parent uint64) (*cell, error) {
	step := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		_, end := tr.begin(name, parent, parent)
		return end
	}
	end := step("core.harden")
	mod, err := core.Harden(src.Module, hardenConfig(src, mode))
	end()
	if err != nil {
		return nil, fmt.Errorf("harden %s/%v: %w", prog, mode, err)
	}
	end = step("vm.compile")
	compiled := vm.Compile(mod)
	end()
	end = step("vm.new")
	mach := vm.NewFromProgram(compiled, ladderThreads, vmConfig(seed))
	end()
	hp := *src
	hp.Module = mod
	return &cell{prog: prog, mode: mode, src: src, mod: mod, mach: mach, specs: hp.SpecsFor(ladderThreads)}, nil
}

func buildLadder(seed int64) ([]*cell, error) {
	var cells []*cell
	for _, name := range ladderPrograms {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		src := spec.Build(ladderScale)
		for _, mode := range ladderModes {
			c, err := buildCell(name, src, mode, seed, nil, 0)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// reference runs every native module on the step interpreter: the
// output each cell of that program must reproduce. It returns the
// outputs by program and the interpreter's throughput.
func reference(cells []*cell, seed int64) (map[string][]uint64, float64, error) {
	ref := map[string][]uint64{}
	var instrs uint64
	var wall time.Duration
	for _, c := range cells {
		if c.mode != core.ModeNative {
			continue
		}
		mach := vm.New(c.src.Module.Clone(), ladderThreads, vmConfig(seed))
		t0 := time.Now()
		st := mach.Run(c.src.SpecsFor(ladderThreads)...)
		wall += time.Since(t0)
		if st != vm.StatusOK {
			return nil, 0, fmt.Errorf("reference run of %s: %v (%s)", c.prog, st, mach.Stats().CrashReason)
		}
		instrs += mach.Stats().DynInstrs
		ref[c.prog] = slices.Clone(mach.Output())
	}
	return ref, float64(instrs) / wall.Seconds() / 1e6, nil
}

// ladderPass is one timed run of every cell.
type ladderPass struct {
	runUs  []float64 // per cell, in cell order
	instrs []uint64
}

func (lp ladderPass) total() (us float64, instrs uint64) {
	for i := range lp.runUs {
		us += lp.runUs[i]
		instrs += lp.instrs[i]
	}
	return us, instrs
}

// runPass resets and runs every cell, timing Machine.Run alone, and
// checks status and output against the reference.
func runPass(r *results, cells []*cell, ref map[string][]uint64) ladderPass {
	var lp ladderPass
	for _, c := range cells {
		c.mach.Reset()
		t0 := time.Now()
		st := c.mach.Run(c.specs...)
		lp.runUs = append(lp.runUs, float64(time.Since(t0))/1e3)
		lp.instrs = append(lp.instrs, c.mach.Stats().DynInstrs)
		r.check(st == vm.StatusOK && slices.Equal(c.mach.Output(), ref[c.prog]),
			"%v: status %v, output %v, want %v", c, st, c.mach.Output(), ref[c.prog])
	}
	return lp
}

// ladderWindow runs one warm-up pass and then timed passes for dur (at
// least two).
func ladderWindow(r *results, cells []*cell, ref map[string][]uint64, dur time.Duration) ([]ladderPass, cost) {
	runPass(r, cells, ref)
	var passes []ladderPass
	before := readProc()
	for t0 := time.Now(); len(passes) < 2 || time.Since(t0) < dur; {
		passes = append(passes, runPass(r, cells, ref))
	}
	return passes, costBetween(before, readProc(), len(passes)*len(cells))
}

func execEndToEnd(e *env) error {
	cells, err := setupMedian(e, func() ([]*cell, error) { return buildLadder(e.seed) }, func([]*cell) {})
	if err != nil {
		return err
	}
	ref, _, err := reference(cells, e.seed)
	if err != nil {
		return err
	}
	passes, c := ladderWindow(e.r, cells, ref, time.Duration(e.seconds)*time.Second)
	var rates []float64
	var perPass [][]float64
	for _, lp := range passes {
		us, _ := lp.total()
		rates = append(rates, float64(len(cells))/(us/1e6))
		perPass = append(perPass, lp.runUs)
	}
	ops := len(passes) * len(cells)
	e.r.setSlices("ops_per_s", rates, ops)
	e.r.setSlices("op_p50_us", perSlice(perPass, p(0.5)), ops)
	e.r.setSlices("op_p90_us", perSlice(perPass, p(0.9)), ops)
	e.r.set("cpu_us_per_op", c.cpuUsPerOp, ops)
	e.r.set("alloc_kb_per_op", c.allocKBPerOp, ops)
	e.r.note("%d passes of %d cells (%d programs x %d modes), scale %d, %d simulated threads, compiled engine",
		len(passes), len(cells), len(ladderPrograms), len(ladderModes), ladderScale, ladderThreads)
	return nil
}

// medianMs times f probeReps times and returns the median in ms.
func medianMs(f func()) float64 {
	var ms []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		f()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

func execLayers(e *env) error {
	r := e.r
	cells, err := buildLadder(e.seed)
	if err != nil {
		return err
	}
	ref, interpRate, err := reference(cells, e.seed)
	if err != nil {
		return err
	}
	r.set("vm.interp_minstr_per_s", interpRate, len(ladderPrograms))

	// Untraced passes: host speed per mode, and the simulated ratios.
	_, dur := windowOf(e.seconds, 0.5)
	passes, c := ladderWindow(r, cells, ref, dur)
	r.set("proc.allocs_per_op", c.allocsPerOp, len(passes)*len(cells))
	rate := func(keep func(*cell) bool) float64 {
		var rates []float64
		for _, lp := range passes {
			var us float64
			var instrs uint64
			for i, c := range cells {
				if keep(c) {
					us += lp.runUs[i]
					instrs += lp.instrs[i]
				}
			}
			rates = append(rates, float64(instrs)/us)
		}
		return median(rates)
	}
	r.set("vm.minstr_per_s", rate(func(*cell) bool { return true }), len(passes))
	for _, mode := range ladderModes {
		r.set("vm.minstr_per_s."+mode.String(), rate(func(c *cell) bool { return c.mode == mode }), len(passes))
	}
	native := map[string]*cell{}
	for _, c := range cells {
		if c.mode == core.ModeNative {
			native[c.prog] = c
		}
	}
	var txStarted, txAborted, haftInstrs uint64
	for _, mode := range ladderModes[1:] {
		var dyn, cyc, static []float64
		for _, c := range cells {
			if c.mode != mode {
				continue
			}
			n := native[c.prog]
			dyn = append(dyn, float64(c.mach.Stats().DynInstrs)/float64(n.mach.Stats().DynInstrs))
			cyc = append(cyc, float64(c.mach.Stats().Cycles)/float64(n.mach.Stats().Cycles))
			static = append(static, float64(c.mod.NumInstrs())/float64(n.mod.NumInstrs()))
			if mode == core.ModeHAFT {
				hs := c.mach.HTM.Stats
				txStarted += hs.Started
				txAborted += hs.Started - hs.Committed
				haftInstrs += c.mach.Stats().DynInstrs
			}
		}
		r.set("vm.dyn_instrs_x."+mode.String(), geomean(dyn), len(dyn))
		r.set("vm.cycles_x."+mode.String(), geomean(cyc), len(cyc))
		if mode == core.ModeHAFT {
			r.set("core.static_instrs_x_haft", geomean(static), len(static))
		}
	}
	r.set("htm.tx_per_kinstr", float64(txStarted)/(float64(haftInstrs)/1e3), len(ladderPrograms))
	r.set("htm.abort_share", float64(txAborted)/float64(txStarted), len(ladderPrograms))

	// Traced pass: every cell built and run from scratch under spans.
	tr := newTracer()
	var tracedUs float64
	var tracedInstrs uint64
	for _, c := range cells {
		id, endCell := tr.begin("cell", 0, 0)
		tc, err := buildCell(c.prog, c.src, c.mode, e.seed, tr, id)
		if err != nil {
			return err
		}
		_, endRun := tr.begin("vm.run", id, id)
		t0 := time.Now()
		st := tc.mach.Run(tc.specs...)
		tracedUs += float64(time.Since(t0)) / 1e3
		endRun()
		endCell()
		tracedInstrs += tc.mach.Stats().DynInstrs
		r.check(st == vm.StatusOK && slices.Equal(tc.mach.Output(), ref[c.prog]), "traced %v: status %v", c, st)
	}
	spans := tr.snapshot()
	r.Layers = summarize(spans)
	r.set("obs.trace_overhead_share", 1-float64(tracedInstrs)/tracedUs/r.Metrics["vm.minstr_per_s"].Value, len(cells))
	if err := writeTrace(filepath.Join(outDir, "trace-"+wExec+".json"), wExec, spans); err != nil {
		return err
	}

	// Probes: each hardening mode and each pass over the six programs.
	// Cloning is part of a pass probe, as it is of core.Harden; tx runs
	// on ILR output, as it does in the HAFT pipeline.
	var srcs []*workloads.Program
	for _, name := range ladderPrograms {
		srcs = append(srcs, native[name].src)
	}
	harden := func(modes ...core.Mode) float64 {
		return medianMs(func() {
			for _, src := range srcs {
				for _, mode := range modes {
					core.MustHarden(src.Module, hardenConfig(src, mode))
				}
			}
		})
	}
	r.set("core.harden_ms", harden(ladderModes[1:]...), probeReps)
	r.set("core.harden_ilr_ms", harden(core.ModeILR), probeReps)
	r.set("core.harden_haft_ms", harden(core.ModeHAFT), probeReps)
	r.set("core.harden_tmr_ms", harden(core.ModeTMR), probeReps)
	pass := func(apply func(m *ir.Module, src *workloads.Program)) float64 {
		return medianMs(func() {
			for _, src := range srcs {
				apply(src.Module.Clone(), src)
			}
		})
	}
	r.set("ilr.apply_ms", pass(func(m *ir.Module, _ *workloads.Program) { ilr.Apply(m, ilr.AllOptions()) }), probeReps)
	r.set("tmr.apply_ms", pass(func(m *ir.Module, _ *workloads.Program) { tmr.Apply(m, tmr.AllOptions()) }), probeReps)
	r.set("opt.apply_ms", pass(func(m *ir.Module, _ *workloads.Program) { opt.Apply(m) }), probeReps)
	ilrOut := map[*workloads.Program]*ir.Module{}
	for _, src := range srcs {
		ilrOut[src] = src.Module.Clone()
		ilr.Apply(ilrOut[src], ilr.AllOptions())
	}
	r.set("tx.apply_ms", medianMs(func() {
		for _, src := range srcs {
			o := tx.DefaultOptions()
			o.Threshold, o.Blacklist = src.TxThreshold, src.Blacklist
			tx.Apply(ilrOut[src].Clone(), o)
		}
	}), probeReps)
	r.set("vm.compile_ms", medianMs(func() {
		for _, c := range cells {
			vm.Compile(c.mod)
		}
	}), probeReps)
	r.note("untraced: %d passes; traced: 1 pass building every cell from scratch; probes: median of %d repetitions over the %d programs",
		len(passes), probeReps, len(ladderPrograms))
	return nil
}
