// Command bench is the repository's performance benchmark: four
// workloads that time the hardening ladder, the fault-injection
// campaign engine, the serving pool and the replicated cluster through
// their public functions, end to end and layer by layer. README.md
// documents every workload and metric; BENCHMARK.json at the root of
// the repository declares them to the driver.
//
// Run it from the root of a checkout:
//
//	bash bench/run.sh                                  # everything
//	bash bench/run.sh -workload serve-kv -seed 7 -seconds 20 -trace 0
//	bash bench/run.sh -agree 10                        # two sets of runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run sets its workload up at least minSetups times and goes on, up
// to maxSetups, until the set-ups have taken setupBudget together;
// setup_s is the median. A set-up of a millisecond is repeated often
// enough for its median to hold still, one of a second is not repeated
// more than needed.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second / 2
)

// outDir receives results.json and the span files.
const outDir = "bench/out"

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds int
	nproc   int
	r       *results
}

// setupMedian runs build repeatedly, tearing all but the last instance
// down again, records the median duration as setup_s and returns the
// last instance.
func setupMedian[T any](e *env, build func() (T, error), teardown func(T)) (T, error) {
	var inst T
	var secs []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			teardown(inst)
		}
		t0 := time.Now()
		var err error
		if inst, err = build(); err != nil {
			return inst, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	if e.r.Trace == 0 {
		e.r.set("setup_s", median(secs), len(secs))
	}
	return inst, nil
}

type workload struct {
	name, why string
	// endToEnd measures the untraced end-to-end metrics; layers the
	// per-layer ones (and writes the span file).
	endToEnd, layers func(*env) error
}

var workloadTable = []workload{
	{wExec, "vm, htm and core do all the work and fault, serve and cluster none", execEndToEnd, execLayers},
	{wFI, "fault does the work (machine construction, run to site, classification) on top of vm", fiEndToEnd, fiLayers},
	{wServe, "one node: per-request cost of protocol, queue, batch and verify; scans show batching", serveEndToEnd, serveLayers},
	{wCluster, "adds router parse, fan-out, vote, write log and router-to-node transport to serve-kv", clusterEndToEnd, clusterLayers},
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: exec-ladder, fi-campaign, serve-kv, cluster-kv or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 15, "length of the timed part of a run")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics, 1: per-layer metrics with spans, -1: one run of each")
		agree   = flag.Int("agree", 0, "run two sets of this many end-to-end runs of the workload(s) and compare them")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *agree > 0 {
		os.Exit(runAgree(*name, *agree, *seed, *seconds))
	}

	var all []*results
	ok := true
	for _, w := range workloadTable {
		if *name != "all" && *name != w.name {
			continue
		}
		for _, tr := range []int{0, 1} {
			if *trace != -1 && *trace != tr {
				continue
			}
			r, good := runOne(w, *seed, *seconds, tr)
			all = append(all, r)
			ok = ok && good
		}
	}
	if len(all) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// line is the last line a run prints: the form the driver reads.
type line struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once, prints its metrics by name and then
// the driver's line, and reports whether every output was correct.
func runOne(w workload, seed int64, seconds, trace int) (*results, bool) {
	e := &env{seed: seed, seconds: seconds, nproc: runtime.NumCPU(),
		r: newResults(w.name, seed, seconds, trace)}
	fmt.Printf("== %s  seed %d  %d s  trace %d  %d cores\n   %s\n", w.name, seed, seconds, trace, e.nproc, w.why)
	run := w.endToEnd
	if trace == 1 {
		run = w.layers
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	err := run(e)
	if err == nil && trace == 1 {
		procTotals(e.r, gc0)
		e.r.set("obs.ring_emit_ns", ringEmitNs(), ringEmits)
	}
	var reported map[string]value
	if err == nil {
		reported, err = e.r.reported()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		e.r.Failures = append(e.r.Failures, err.Error())
		return e.r, false
	}
	fmt.Print(e.r.table())
	for _, lt := range e.r.Layers {
		fmt.Printf("span %-22s n %-8d self %10.2f ms  total %10.2f ms  self p50 %9.2f us\n",
			lt.Name, lt.Count, lt.SelfMs, lt.TotalMs, lt.SelfP50Us)
	}
	for _, n := range e.r.Notes {
		fmt.Println("note:", n)
	}
	for _, f := range e.r.Failures {
		fmt.Println("FAILED:", f)
	}
	correct := e.r.Failed == 0 && e.r.Attempted > 0
	out := line{Correct: correct, Attempted: e.r.Attempted, Failed: e.r.Failed, Metrics: map[string]reading{}}
	for n, v := range reported {
		out.Metrics[n] = reading{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
	return e.r, correct
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
