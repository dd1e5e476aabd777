package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fi-campaign shape: the same campaign on two HAFT-hardened targets,
// smallest inputs, all six fault models, default segments and batch.
var fiPrograms = []string{"histogram", "linearreg"}

const (
	fiThreads    = 2
	fiInjections = 192 // per target and repetition
	// fiSerialPrefix is how many injections the Workers=1 re-run
	// repeats: two default batches (64 rounded up to a multiple of the
	// six models), so the parallel run has a checkpoint to compare.
	fiSerialPrefix = 132
)

// fiCounts is outcome counts by target and fault model, each in
// fault.Outcomes() order.
type fiCounts map[string]map[string][]int

// fiGolden pins the outcome counts of seed 1.
type fiGolden struct {
	Seed       int64    `json:"seed"`
	Injections int      `json:"injections"`
	Counts     fiCounts `json:"counts"`
}

//go:embed golden/fi-campaign.seed1.json
var fiGoldenJSON []byte

func loadGolden(b []byte) (*fiGolden, error) {
	var g fiGolden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	if len(g.Counts) == 0 {
		return nil, fmt.Errorf("golden: no counts")
	}
	for target, models := range g.Counts {
		for model, counts := range models {
			if len(counts) != len(fault.Outcomes()) {
				return nil, fmt.Errorf("golden: %s/%s has %d outcome counts, want %d",
					target, model, len(counts), len(fault.Outcomes()))
			}
		}
	}
	return &g, nil
}

func countsOf(res *fault.CampaignResult) map[string][]int {
	out := map[string][]int{}
	for _, mr := range res.PerModel {
		out[mr.Model.String()] = append([]int(nil), mr.Counts[:]...)
	}
	return out
}

func buildTargets(seed int64) ([]*fault.Target, error) {
	var targets []*fault.Target
	for _, name := range fiPrograms {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		p := spec.Build(0)
		mod, err := core.Harden(p.Module, hardenConfig(p, core.ModeHAFT))
		if err != nil {
			return nil, fmt.Errorf("harden %s: %w", name, err)
		}
		hp := *p
		hp.Module = mod
		targets = append(targets, &fault.Target{Name: name, Module: mod, Threads: fiThreads,
			VM: vmConfig(seed), Specs: hp.SpecsFor(fiThreads)})
	}
	return targets, nil
}

// fiRep is one repetition: the campaign on every target.
type fiRep struct {
	wall   []time.Duration // per target
	counts fiCounts
	// prefix is each target's counts after fiSerialPrefix injections.
	prefix fiCounts
}

func (rep fiRep) total() time.Duration {
	var d time.Duration
	for _, w := range rep.wall {
		d += w
	}
	return d
}

// rate is injections per second over all targets, each given n.
func (rep fiRep) rate(n int) float64 {
	return float64(len(rep.wall)*n) / rep.total().Seconds()
}

func runRep(e *env, targets []*fault.Target, workers, injections int, tr *tracer, parent uint64) (fiRep, error) {
	rep := fiRep{counts: fiCounts{}, prefix: fiCounts{}}
	for _, t := range targets {
		end := func() {}
		if tr != nil {
			_, end = tr.begin("fault.run_campaign", parent, parent)
		}
		t0 := time.Now()
		res, err := fault.RunCampaign(t, fault.CampaignConfig{
			Models: fault.AllModels(), Injections: injections, Seed: e.seed, Workers: workers,
			OnCheckpoint: func(cr *fault.CampaignResult) {
				if cr.NextIndex == fiSerialPrefix {
					rep.prefix[t.Name] = countsOf(cr)
				}
			},
		})
		rep.wall = append(rep.wall, time.Since(t0))
		end()
		if err != nil {
			return rep, fmt.Errorf("campaign on %s: %w", t.Name, err)
		}
		rep.counts[t.Name] = countsOf(res)
	}
	return rep, nil
}

// fiWindow runs one warm-up repetition and then timed ones for dur (at
// least two). Every repetition must classify every injection the same
// way.
func fiWindow(e *env, targets []*fault.Target, dur time.Duration) ([]fiRep, cost, error) {
	warm, err := runRep(e, targets, e.nproc, fiInjections, nil, 0)
	if err != nil {
		return nil, cost{}, err
	}
	var reps []fiRep
	before := readProc()
	for t0 := time.Now(); len(reps) < 2 || time.Since(t0) < dur; {
		rep, err := runRep(e, targets, e.nproc, fiInjections, nil, 0)
		if err != nil {
			return nil, cost{}, err
		}
		e.r.checkN(len(targets)*fiInjections, reflect.DeepEqual(rep.counts, warm.counts),
			"repetition %d: outcome counts %v differ from the first run's %v", len(reps)+1, rep.counts, warm.counts)
		reps = append(reps, rep)
	}
	c := costBetween(before, readProc(), len(reps)*len(targets)*fiInjections)
	return reps, c, nil
}

// fiGates checks the outcome counts against the golden file (seed 1)
// and against a Workers=1 re-run of the first fiSerialPrefix
// injections; it returns the serial run.
func fiGates(e *env, targets []*fault.Target, rep fiRep) (fiRep, error) {
	e.r.Exact = fiGolden{Seed: e.seed, Injections: fiInjections, Counts: rep.counts}
	if e.seed == 1 {
		g, err := loadGolden(fiGoldenJSON)
		if err != nil {
			return fiRep{}, err
		}
		e.r.checkN(len(targets)*fiInjections, g.Injections == fiInjections && reflect.DeepEqual(g.Counts, rep.counts),
			"outcome counts %v differ from golden/fi-campaign.seed1.json %v", rep.counts, g.Counts)
	}
	serial, err := runRep(e, targets, 1, fiSerialPrefix, nil, 0)
	if err != nil {
		return serial, err
	}
	e.r.checkN(len(targets)*fiSerialPrefix, reflect.DeepEqual(serial.counts, rep.prefix),
		"Workers=1 outcome counts %v differ from the parallel run's first %d injections %v",
		serial.counts, fiSerialPrefix, rep.prefix)
	return serial, nil
}

func fiEndToEnd(e *env) error {
	targets, err := setupMedian(e, func() ([]*fault.Target, error) { return buildTargets(e.seed) }, func([]*fault.Target) {})
	if err != nil {
		return err
	}
	reps, c, err := fiWindow(e, targets, time.Duration(e.seconds)*time.Second)
	if err != nil {
		return err
	}
	if _, err := fiGates(e, targets, reps[0]); err != nil {
		return err
	}
	// RunCampaign does not expose single injections, so the latency
	// samples of a repetition are each target's wall time per injection
	// per worker: p50 is the cheaper target, p90 the dearer one.
	var rates []float64
	var perTarget [][]float64
	for _, rep := range reps {
		rates = append(rates, rep.rate(fiInjections))
		var us []float64
		for _, w := range rep.wall {
			us = append(us, float64(w)/1e3*float64(e.nproc)/fiInjections)
		}
		perTarget = append(perTarget, us)
	}
	ops := len(reps) * len(targets) * fiInjections
	e.r.setSlices("ops_per_s", rates, ops)
	e.r.setSlices("op_p50_us", perSlice(perTarget, p(0.5)), len(reps)*len(targets))
	e.r.setSlices("op_p90_us", perSlice(perTarget, p(0.9)), len(reps)*len(targets))
	e.r.set("cpu_us_per_op", c.cpuUsPerOp, ops)
	e.r.set("alloc_kb_per_op", c.allocKBPerOp, ops)
	e.r.note("%d repetitions of %d injections on each of %v (HAFT, scale 0, %d simulated threads, %d workers); "+
		"op latency is a target's wall time per injection per worker", len(reps), fiInjections, fiPrograms, fiThreads, e.nproc)
	return nil
}

func fiLayers(e *env) error {
	r := e.r
	targets, err := buildTargets(e.seed)
	if err != nil {
		return err
	}
	_, dur := windowOf(e.seconds, 0.4)
	reps, c, err := fiWindow(e, targets, dur)
	if err != nil {
		return err
	}
	serial, err := fiGates(e, targets, reps[0])
	if err != nil {
		return err
	}
	r.set("proc.allocs_per_op", c.allocsPerOp, len(reps)*len(targets)*fiInjections)

	// The reference cost of one injection: build a machine, run the
	// target fault-free.
	var refMs, newUs float64
	for _, t := range targets {
		prog := vm.Compile(t.Module)
		var ms, us []float64
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			mach := vm.NewFromProgram(prog, t.Threads, t.VM)
			t1 := time.Now()
			st := mach.Run(t.Specs...)
			t2 := time.Now()
			if st != vm.StatusOK {
				return fmt.Errorf("reference run of %s: %v", t.Name, st)
			}
			us = append(us, float64(t1.Sub(t0))/1e3)
			ms = append(ms, float64(t2.Sub(t1))/1e6)
		}
		refMs += median(ms) / float64(len(targets))
		newUs += median(us) / float64(len(targets))
	}
	r.set("vm.new_machine_us", newUs, probeReps*len(targets))
	r.set("fault.ref_run_ms", refMs, probeReps*len(targets))

	perTarget := make([][]float64, len(targets))
	var all []float64
	for _, rep := range reps {
		for i, w := range rep.wall {
			perTarget[i] = append(perTarget[i], fiInjections/w.Seconds())
		}
		all = append(all, rep.rate(fiInjections))
	}
	for i, t := range targets {
		r.set("fault.runs_per_s."+t.Name, median(perTarget[i]), len(reps))
	}
	runMs := float64(e.nproc) / median(all) * 1e3
	r.set("fault.run_ms_mean", runMs, len(reps))
	r.set("fault.overhead_x", runMs/refMs, len(reps))
	r.set("fault.runs_per_s.w1", serial.rate(fiSerialPrefix), 1)

	counts := make([]int, len(fault.Outcomes()))
	total := 0
	for _, models := range reps[0].counts {
		for _, cs := range models {
			for o, n := range cs {
				counts[o] += n
				total += n
			}
		}
	}
	for i, name := range []string{"hang", "os", "ilr", "corrected", "masked", "sdc"} {
		r.set("fault.outcome_share."+name, float64(counts[i])/float64(total), total)
	}

	// Traced repetition.
	tr := newTracer()
	id, end := tr.begin("campaign", 0, 0)
	for _, t := range targets {
		_, endRef := tr.begin("fault.ref_run", id, id)
		vm.NewFromProgram(vm.SharedPrograms.Get(t.Module), t.Threads, t.VM).Run(t.Specs...)
		endRef()
	}
	traced, err := runRep(e, targets, e.nproc, fiInjections, tr, id)
	end()
	if err != nil {
		return err
	}
	r.checkN(len(targets)*fiInjections, reflect.DeepEqual(traced.counts, reps[0].counts), "traced repetition: outcome counts differ")
	spans := tr.snapshot()
	r.Layers = summarize(spans)
	r.set("obs.trace_overhead_share", 1-traced.rate(fiInjections)/median(all), 1)
	r.note("untraced: %d repetitions; Workers=1: first %d injections per target; traced: 1 repetition",
		len(reps), fiSerialPrefix)
	return writeTrace(filepath.Join(outDir, "trace-"+wFI+".json"), wFI, spans)
}
