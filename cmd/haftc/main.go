// Command haftc is the HAFT compiler driver: it reads a program in
// the textual IR, applies the requested hardening pipeline (ILR for
// detection, TX for recovery), and prints the transformed IR — the
// equivalent of running the paper's LLVM passes and inspecting the
// bitcode.
//
// Usage:
//
//	haftc [-mode native|ilr|tx|haft|tmr] [-opt N|S|C|L|F] [-threshold N] [-O] [-stats] [-run] [-threads N] [-trace N] [-profile] file.{ir,hc}
//
// With -run the program is also executed on the simulated machine and
// its output and statistics are printed. -profile additionally
// attributes every dynamic instruction to master / shadow / check /
// tx per function and source line (the Figure 7 breakdown);
// -profile-folded writes pprof-style folded stacks for flame-graph
// tooling.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	haft "repro"
)

func main() {
	mode := flag.String("mode", "haft", "hardening mode: native, ilr, tx, haft, tmr")
	opt := flag.String("opt", "F", "optimization level: N, S, C, L, F (cumulative, §3.3)")
	threshold := flag.Int64("threshold", 1000, "transaction-size threshold in instructions")
	run := flag.Bool("run", false, "execute the program after hardening")
	threads := flag.Int("threads", 1, "threads for -run")
	optimize := flag.Bool("O", false, "run scalar optimizations before the hardening passes (the paper's -O3 step)")
	relax := flag.Bool("relax", false, "TX-aware check relaxation: defer in-transaction checks to commit (abort-on-divergence)")
	copyprop := flag.Bool("copyprop", false, "shadow-flow copy propagation")
	rce := flag.Bool("rce", false, "redundant-check elimination")
	coalesce := flag.Bool("coalesce", false, "check sinking and coalescing")
	reduce := flag.Bool("reduce", false, "enable every overhead-reduction pass (-relax -copyprop -rce -coalesce)")
	stats := flag.Bool("stats", false, "print static instrumentation statistics (LLVM -stats style)")
	trace := flag.Int("trace", 0, "with -run: print the first N register-writing trace events (SDE debugtrace style)")
	profile := flag.Bool("profile", false, "with -run: attribute dynamic instructions to master/shadow/check/tx per function and line")
	folded := flag.String("profile-folded", "", "with -profile: also write pprof-style folded stacks to this file (- for stdout)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: haftc [flags] file.ir")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// .hc files hold the C-flavored source language; everything else
	// is textual IR.
	var prog *haft.Program
	if strings.HasSuffix(flag.Arg(0), ".hc") {
		prog, err = haft.CompileSource(string(src))
	} else {
		prog, err = haft.Parse(string(src))
	}
	if err != nil {
		fatal(err)
	}
	cfg := haft.DefaultConfig()
	cfg.TxThreshold = *threshold
	if cfg.Mode, err = haft.ParseMode(*mode); err != nil {
		fatal(err)
	}
	switch *opt {
	case "N":
		cfg.Opt = haft.OptNone
	case "S":
		cfg.Opt = haft.OptSharedMem
	case "C":
		cfg.Opt = haft.OptControlFlow
	case "L":
		cfg.Opt = haft.OptLocalCalls
	case "F":
		cfg.Opt = haft.OptFaultProp
	default:
		fatal(fmt.Errorf("unknown opt level %q", *opt))
	}
	cfg.Optimize = *optimize
	cfg.RelaxTX = *relax || *reduce
	cfg.CopyProp = *copyprop || *reduce
	cfg.ReduceChecks = *rce || *reduce
	cfg.CoalesceChecks = *coalesce || *reduce
	hard, hs, err := haft.HardenWithStats(prog, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(hard.Source())
	if *stats {
		fmt.Println("\n; instrumentation statistics:")
		for _, line := range strings.Split(strings.TrimRight(haft.Stats(hard), "\n"), "\n") {
			fmt.Println(";" + line)
		}
		fmt.Printf(";  static expansion vs input: %.2fx\n",
			haft.Expansion(prog, hard))
		if hs.Relax.Total()+hs.Relax.KeptEager+hs.Reduce.Total()+hs.Cleanup.Total() > 0 {
			fmt.Println("; reduction-pass statistics:")
			fmt.Printf(";   relax: %d checks deferred, %d store loads folded, %d counters folded, %d kept eager\n",
				hs.Relax.Relaxed, hs.Relax.LoadsFolded, hs.Relax.CountersFolded, hs.Relax.KeptEager)
			fmt.Printf(";   reduce: %d copies propagated, %d checks removed, %d pairs removed, %d sunk, %d coalesced, %d calls merged\n",
				hs.Reduce.CopiesPropagated, hs.Reduce.ChecksRemoved, hs.Reduce.PairsRemoved,
				hs.Reduce.ChecksSunk, hs.Reduce.ChecksCoalesced, hs.Reduce.CallsCoalesced)
			fmt.Printf(";   cleanup: %d folded, %d dead removed, %d blocks gone, %d branches cut, %d threaded, %d merged\n",
				hs.Cleanup.Folded, hs.Cleanup.DeadRemoved, hs.Cleanup.BlocksGone,
				hs.Cleanup.BranchesCut, hs.Cleanup.Threaded, hs.Cleanup.Merged)
		}
	}
	if *run {
		var res haft.Result
		var prof *haft.Profile
		switch {
		case *profile:
			res, prof = haft.RunProfiled(hard, *threads)
		case *trace > 0:
			var events []haft.TraceEvent
			res, events = haft.Trace(hard, *threads, *trace)
			fmt.Println("\n; trace (dynamic register writes):")
			for _, ev := range events {
				fmt.Printf(";   #%-6d c%d %s/%s %-8s -> %d (cycle %d)\n",
					ev.Index, ev.Core, ev.Func, ev.Block, ev.Op, int64(ev.Value), ev.Cycle)
			}
		default:
			res = haft.Run(hard, *threads)
		}
		fmt.Printf("\n; status=%s cycles=%d (%.3g s) instrs=%d aborts=%.2f%% coverage=%.1f%%\n",
			res.Status, res.Cycles, res.Seconds, res.DynInstrs, res.AbortRate, res.Coverage)
		fmt.Printf("; output: %v\n", res.Output)
		if res.CorrectedFaults > 0 {
			fmt.Printf("; corrected faults: %d\n", res.CorrectedFaults)
		}
		if res.CrashReason != "" {
			fmt.Printf("; crash: %s\n", res.CrashReason)
		}
		if prof != nil {
			fmt.Println("\n; hardening-overhead profile:")
			for _, line := range strings.Split(strings.TrimRight(prof.Report(), "\n"), "\n") {
				fmt.Println("; " + line)
			}
			if *folded != "" {
				out := prof.Folded(true)
				if *folded == "-" {
					fmt.Print(out)
				} else if err := os.WriteFile(*folded, []byte(out), 0o644); err != nil {
					fatal(err)
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "haftc:", err)
	os.Exit(1)
}
