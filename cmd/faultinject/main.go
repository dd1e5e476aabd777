// Command faultinject runs fault-injection campaigns (§4.2, §5.5)
// against a benchmark or case-study program under the chosen
// hardening mode.
//
// The classic single-model flow prints the Table 1 outcome breakdown;
// selecting several fault models switches to the campaign engine:
// per-model outcome rates with Wilson confidence intervals, optional
// early stopping at a target margin of error, JSON reports, and
// checkpoint/resume.
//
// Usage:
//
//	faultinject [flags] benchmark...
//	faultinject -n 500 -mode haft linearreg canneal
//	faultinject -models reg,mem,branch -moe 0.02 -n 5000 linearreg
//	faultinject -models all -flow shadow -json linearreg
//	faultinject -models reg,mem -checkpoint camp.json -n 2000 canneal
//
// Flags:
//
//	-n N            injection budget per campaign (paper: 2500)
//	-seed N         campaign seed
//	-mode M         hardening: native, ilr, haft, tmr (or a comma list)
//	-scale N        input scale (0 = smallest, as in the paper's FI runs)
//	-models LIST    fault models: reg,mem,branch,addr,skip,double or "all"
//	                (empty: classic single-model register campaign)
//	-flow F         restrict register models to a flow: any, master,
//	                shadow, shadow2; the flow must exist under every
//	                selected mode (shadow needs ilr/haft/tmr, shadow2
//	                needs tmr)
//	-moe F          stop early at this margin of error (e.g. 0.02)
//	-confidence F   confidence level for intervals and stopping (default 0.95)
//	-segments N     stratified trace segments (default 4)
//	-workers N      parallel workers (default GOMAXPROCS)
//	-json           print the campaign result as JSON
//	-checkpoint F   persist campaign state to F after every batch and
//	                resume from it if it exists
//	-max-sdc F      exit non-zero if any model's silent-corruption rate
//	                exceeds F percent (gating threshold)
//	-debug-addr A   serve live campaign telemetry on A: /metrics streams
//	                per-model runs, SDC confidence intervals and the
//	                abort-cause histogram; /trace exports campaign events
//	                as Chrome trace JSON
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	haft "repro"
)

func main() {
	n := flag.Int("n", 250, "number of injections per campaign (paper: 2500)")
	seed := flag.Int64("seed", 1, "campaign seed")
	mode := flag.String("mode", "haft", "hardening mode: native, ilr, tx, haft, tmr (or a comma list)")
	scale := flag.Int("scale", 0, "input scale (0 = smallest, as in the paper's FI runs)")
	models := flag.String("models", "", `fault models ("reg,mem,branch,addr,skip,double", "all"; empty = classic register campaign)`)
	flow := flag.String("flow", "any", "fault flow for register models: any, master, shadow, shadow2 (must exist under every selected mode)")
	moe := flag.Float64("moe", 0, "stop early at this margin of error (0 disables, e.g. 0.02)")
	confidence := flag.Float64("confidence", 0.95, "confidence level for intervals and early stopping")
	segments := flag.Int("segments", 4, "stratified trace segments")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "print campaign results as JSON")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: saved after every batch, resumed from if present")
	maxSDC := flag.Float64("max-sdc", -1, "exit non-zero if any model's SDC class rate exceeds this percentage (-1 disables)")
	debugAddr := flag.String("debug-addr", "", "serve live campaign telemetry on this address (/metrics, /trace, /healthz, /debug/pprof/)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintf(os.Stderr, "usage: faultinject [flags] benchmark...\nbenchmarks: %s\n",
			strings.Join(haft.Benchmarks(), " "))
		os.Exit(2)
	}

	if *models == "" {
		classic(*n, *seed, *mode, *scale)
		return
	}

	modelList, err := parseModels(*models)
	if err != nil {
		fatal(err)
	}
	flowVal, err := haft.ParseFaultFlow(*flow)
	if err != nil {
		fatal(err)
	}
	// Reject flow restrictions that cannot select any instruction under
	// one of the selected modes (e.g. the shadow flow of a native build,
	// or the second TMR shadow under ILR): the register-indexed models
	// would otherwise run against an empty injection population and the
	// campaign would fail (or, worse, report a vacuous zero-SDC result
	// from zero strata). The shared table's error lists the flows that
	// ARE valid for the mode.
	for _, ms := range strings.Split(*mode, ",") {
		if err := haft.ValidateFaultFlowForMode(ms, flowVal); err != nil {
			fatal(err)
		}
	}

	// Live telemetry: per-model progress (runs, SDC CI, abort-cause
	// histogram) on /metrics, campaign events on /trace.
	var (
		reg  *haft.DebugRegistry
		ring *haft.ObsRing
	)
	if *debugAddr != "" {
		reg = haft.NewDebugRegistry()
		haft.DeclareFaultCampaignMetrics(reg)
		ring = haft.NewObsRing(1 << 16)
		srv, err := haft.ListenDebug(*debugAddr, haft.NewDebugHandler(haft.DebugHandlerConfig{
			Metrics: []func(io.Writer){reg.WriteProm},
			Ring:    ring,
			Health:  func() haft.DebugHealth { return haft.DebugHealth{OK: true} },
		}))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "faultinject: telemetry on http://%s/metrics\n", srv.Addr)
	}

	var results []*haft.FaultCampaignResult
	for _, name := range flag.Args() {
		for _, ms := range strings.Split(*mode, ",") {
			hard, err := hardened(name, ms, *scale)
			if err != nil {
				fatal(err)
			}
			cfg := haft.FaultCampaignConfig{
				Models:     modelList,
				Injections: *n,
				Seed:       *seed,
				MOE:        *moe,
				Confidence: *confidence,
				Segments:   *segments,
				Flow:       flowVal,
				Workers:    *workers,
				Trace:      ring,
				Progress:   reg,
			}
			if *checkpoint != "" {
				if b, err := os.ReadFile(*checkpoint); err == nil {
					prev, err := haft.LoadFaultCheckpoint(b)
					if err != nil {
						fatal(err)
					}
					if prev.Name == hard.Name {
						cfg.Resume = prev
						fmt.Fprintf(os.Stderr, "faultinject: resuming %s at run %d\n",
							prev.Name, prev.NextIndex)
					}
				}
				cfg.OnCheckpoint = func(r *haft.FaultCampaignResult) {
					b, err := r.Checkpoint()
					if err != nil {
						return
					}
					tmp := *checkpoint + ".tmp"
					if os.WriteFile(tmp, b, 0o644) == nil {
						os.Rename(tmp, *checkpoint) //nolint:errcheck
					}
				}
			}
			res, err := haft.InjectFaultsMulti(hard, cfg)
			if err != nil {
				fatal(err)
			}
			results = append(results, res)
			if res.Stopped {
				fmt.Fprintf(os.Stderr, "faultinject: %s stopped early at %d/%d runs (moe %.4f <= %.4f)\n",
					res.Name, res.Total(), *n, res.MOE(), *moe)
			}
		}
	}

	if *jsonOut {
		for _, r := range results {
			b, err := r.Checkpoint()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			fmt.Println()
		}
	} else {
		fmt.Print(haft.FaultCampaignTable(results...))
	}

	if *maxSDC >= 0 {
		code := 0
		for _, r := range results {
			if m, rate := r.WorstSDC(); rate > *maxSDC {
				fmt.Fprintf(os.Stderr, "faultinject: %s model %s SDC rate %.2f%% exceeds threshold %.2f%%\n",
					r.Name, m, rate, *maxSDC)
				code = 1
			}
		}
		os.Exit(code)
	}
}

// classic is the original single-model register campaign with the
// Figure 9 one-line report.
func classic(n int, seed int64, mode string, scale int) {
	for _, name := range flag.Args() {
		for _, ms := range strings.Split(mode, ",") {
			hard, err := hardened(name, ms, scale)
			if err != nil {
				fatal(err)
			}
			rep, err := haft.InjectFaults(hard, n, seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-14s %-6s %s\n", name, ms, rep)
		}
	}
}

func hardened(name, mode string, scale int) (*haft.Program, error) {
	prog, err := haft.Benchmark(name, scale)
	if err != nil {
		return nil, err
	}
	cfg := haft.DefaultConfig()
	if cfg.Mode, err = haft.ParseMode(mode); err != nil {
		return nil, err
	}
	return haft.Harden(prog, cfg)
}

func parseModels(s string) ([]haft.FaultModel, error) {
	if s == "all" {
		return haft.FaultModels(), nil
	}
	return haft.ParseFaultModels(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultinject:", err)
	os.Exit(1)
}
