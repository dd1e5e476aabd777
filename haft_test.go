package haft

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const tinyProg = `
global g bytes=8
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v1 [loop]
  v1 = add v0, #3
  v2 = cmp lt v1, #300
  br v2, loop, done
done:
  store #4096, v1
  v3 = load #4096
  out v3
  ret
}
`

func TestParseRejectsBadPrograms(t *testing.T) {
	if _, err := Parse("func f(0) {\nentry:\n  ret\n}"); err == nil {
		t.Error("Parse accepted a program without main")
	}
	if _, err := Parse("func main(2) {\nentry:\n  ret\n}"); err == nil {
		t.Error("Parse accepted a main with parameters")
	}
	if _, err := Parse("not ir at all"); err == nil {
		t.Error("Parse accepted garbage")
	}
}

func TestHardenRunRoundTrip(t *testing.T) {
	prog, err := Parse(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	native := Run(prog, 1)
	if native.Status != "ok" || len(native.Output) != 1 || native.Output[0] != 300 {
		t.Fatalf("native: %+v", native)
	}
	for _, mode := range []Mode{ModeILR, ModeTX, ModeHAFT} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		hard, err := Harden(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(hard, 1)
		if res.Status != "ok" || res.Output[0] != 300 {
			t.Fatalf("%v: %+v", mode, res)
		}
		if mode != ModeTX && res.DynInstrs <= native.DynInstrs {
			t.Errorf("%v executed no extra instructions", mode)
		}
	}
}

func TestBenchmarkLookup(t *testing.T) {
	if len(Benchmarks()) != 18 {
		t.Fatalf("Benchmarks() = %d names", len(Benchmarks()))
	}
	if _, err := Benchmark("histogram", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Benchmark("memcached", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Benchmark("nope", 0); err == nil {
		t.Fatal("Benchmark accepted unknown name")
	}
}

func TestInjectFaultsReport(t *testing.T) {
	prog, err := Parse(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Harden(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := InjectFaults(hard, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections != 60 {
		t.Fatalf("injections = %d", rep.Injections)
	}
	total := rep.Crashed + rep.Correct + rep.Corrupted
	if total < 99.9 || total > 100.1 {
		t.Fatalf("classes sum to %v", total)
	}
	if rep.Corrected == 0 {
		t.Error("HAFT corrected nothing on the tiny program")
	}
	if !strings.Contains(rep.String(), "corrected") {
		t.Error("report string malformed")
	}
}

func TestMemcachedFacade(t *testing.T) {
	p, err := Memcached("A", "locks", 512)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(p, 2)
	if res.Status != "ok" {
		t.Fatalf("memcached run: %+v", res)
	}
	if _, err := Memcached("Z", "locks", 0); err == nil {
		t.Error("accepted unknown workload")
	}
	if _, err := Memcached("A", "spin", 0); err == nil {
		t.Error("accepted unknown sync mode")
	}
}

func TestExperimentRegistry(t *testing.T) {
	have := map[string]bool{}
	for _, id := range Experiments() {
		have[id] = true
	}
	for _, w := range []string{"fig6", "table2", "fig7", "fig8", "table3", "fig9",
		"fig9opts", "table4", "fig10", "fig11", "fig11sei", "fig12", "appfi",
		"overhead", "tmrcompare", "fimodels", "vmexec"} {
		if !have[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	// Wall-clock experiments live in bench/ only.
	for _, gone := range []string{"serve", "chaos", "cluster", "scenarios"} {
		if have[gone] {
			t.Errorf("timing experiment %q is back in the registry", gone)
		}
	}
	if _, err := Experiment("nope", DefaultExperimentOptions()); err == nil {
		t.Error("unknown experiment accepted")
	}
	opts := DefaultExperimentOptions()
	opts.Benchmarks = []string{"histogram", "nope"}
	_, err := Experiment("table3", opts)
	if err == nil || err.Error() != `haft: unknown benchmark "nope"` {
		t.Errorf("unknown benchmark: err = %v", err)
	}
}

func TestExperimentFig10RunsQuickly(t *testing.T) {
	out, err := Experiment("fig10", DefaultExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "availability") || !strings.Contains(out, "HAFT") {
		t.Fatalf("fig10 output malformed:\n%s", out)
	}
}

func TestExperimentTable2Subset(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Benchmarks = []string{"histogram"}
	opts.PerfThreads = 4
	out, err := Experiment("table2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "histogram") || !strings.Contains(out, "mean") {
		t.Fatalf("table2 output malformed:\n%s", out)
	}
}

func TestTraceFacade(t *testing.T) {
	prog, err := Parse(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	res, events := Trace(prog, 1, 10)
	if res.Status != "ok" {
		t.Fatalf("status %s", res.Status)
	}
	if len(events) != 10 {
		t.Fatalf("events = %d, want 10 (capped)", len(events))
	}
	for i, ev := range events {
		if ev.Index != uint64(i) {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
		if ev.Func != "main" || ev.Op == "" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Uncapped trace covers every register write of the run.
	_, all := Trace(prog, 1, 0)
	if uint64(len(all)) != res.DynInstrs && len(all) == 0 {
		t.Fatal("uncapped trace empty")
	}
}

// TestExperimentRunnersSmoke exercises every registered experiment at
// a tiny scale so the whole registry stays runnable: the one table
// must yield both a rendered text and a machine-readable value.
func TestExperimentRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opts := DefaultExperimentOptions()
	opts.Benchmarks = []string{"histogram"}
	opts.Threads = []int{1, 2}
	opts.PerfThreads = 2
	opts.Injections = 5
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, data, err := ExperimentFull(id, opts)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(out) < 40 {
				t.Fatalf("%s produced implausibly small output:\n%s", id, out)
			}
			if data == nil {
				t.Fatalf("%s produced no machine-readable result", id)
			}
		})
	}
}

// TestDocsNameRegisteredExperiments: every `haftbench [flags] <id>` the
// docs tell a reader to run must name an id the registry has.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	have := map[string]bool{"all": true}
	for _, id := range Experiments() {
		have[id] = true
	}
	token := regexp.MustCompile("`(?:go run ./cmd/)?haftbench [^`\n]*?([a-z0-9]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllStringSubmatch(string(text), -1) {
			if !have[m[1]] {
				t.Errorf("%s: %s names no registered experiment", doc, m[0])
			}
		}
	}
}

// TestTraceMatchesRun: tracing must be observational — the Result a
// trace returns is identical to a plain Run of the same program, and
// the recorded values reconstruct the run's actual dataflow.
func TestTraceMatchesRun(t *testing.T) {
	prog, err := Parse(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	plain := Run(prog, 1)
	traced, events := Trace(prog, 1, 0)
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("traced result %+v differs from plain run %+v", traced, plain)
	}
	if uint64(len(events)) == 0 || uint64(len(events)) > plain.DynInstrs {
		t.Fatalf("%d events for %d dynamic instructions", len(events), plain.DynInstrs)
	}
	// The loop counter's adds are v0+3 chains: every "add" event in
	// block "loop" must be a multiple of 3, ending at 300.
	var last uint64
	for _, ev := range events {
		if ev.Block == "loop" && ev.Op == "add" {
			if ev.Value%3 != 0 {
				t.Fatalf("add value %d not a multiple of 3: %+v", ev.Value, ev)
			}
			last = ev.Value
		}
	}
	if last != 300 {
		t.Fatalf("final loop add = %d, want 300", last)
	}
	// Cycles never decrease along a single-core trace.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("cycle went backwards at event %d: %d -> %d",
				i, events[i-1].Cycle, events[i].Cycle)
		}
	}
}

// TestTraceMultiThread: events carry the executing core, and every
// core of a multithreaded run shows up in the trace.
func TestTraceMultiThread(t *testing.T) {
	prog, err := Parse(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	res, events := Trace(prog, 2, 0)
	if res.Status != "ok" {
		t.Fatalf("status %s", res.Status)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		seen[ev.Core] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("trace covers cores %v, want both 0 and 1", seen)
	}
}

// TestTraceHardened: the trace facade works on hardened programs too,
// and shows the shadow instructions ILR inserted.
func TestTraceHardened(t *testing.T) {
	prog, err := Parse(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Harden(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nres, nev := Trace(prog, 1, 0)
	hres, hev := Trace(hard, 1, 0)
	if hres.Status != "ok" {
		t.Fatalf("hardened status %s", hres.Status)
	}
	if len(hev) <= len(nev) {
		t.Fatalf("hardened trace (%d events) not longer than native (%d)", len(hev), len(nev))
	}
	if hres.Output[0] != nres.Output[0] {
		t.Fatalf("hardening changed output: %v vs %v", hres.Output, nres.Output)
	}
}

// TestServeFacade: the public serving API round-trips requests against
// the reference function and exports metrics.
func TestServeFacade(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Pool = 2
	cfg.KV.Records = 64
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 32; i++ {
		req := ServeRequest{Write: i%2 == 0, Key: uint64(i % 64), Value: uint64(i) * 997}
		v, err := srv.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if v != ServeReference(req, srv.ValueWork()) {
			t.Fatalf("req %d: reply %#x != reference", i, v)
		}
	}
	snap := srv.Metrics()
	if snap.Responses != 32 || snap.CorruptedReplies != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
	if !strings.Contains(string(snap.JSON()), `"corrupted_replies":0`) {
		t.Fatalf("JSON export missing fields: %s", snap.JSON())
	}
}
