// Command haftbench regenerates the tables and figures of the HAFT
// paper's evaluation (§5–§6). Each experiment id corresponds to one
// table or figure; see DESIGN.md for the full index.
//
// Usage:
//
//	haftbench [-scale N] [-injections N] [-seed N] [-benchmarks a,b,c]
//	          [-json] id...
//	haftbench all
//
// -json additionally writes one BENCH_<id>.json per experiment with a
// machine-readable result (structured metrics where the experiment
// defines them, the rendered text otherwise), the command line that
// produced it and, when the binary carries VCS information, the commit.
// Every experiment is deterministic, so the file is byte-stable for a
// given command and tree; wall-clock numbers come from bench/ only.
//
// Absolute numbers come from the machine simulator, not a Haswell
// testbed; the shapes (who wins, rough factors, crossovers) are the
// reproduction target. EXPERIMENTS.md records paper-vs-measured
// values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	haft "repro"
)

func main() {
	scale := flag.Int("scale", 1, "input scale (1 = default; fault injection always uses the smallest inputs)")
	injections := flag.Int("injections", 150, "fault injections per program per mode (paper: 2500)")
	moe := flag.Float64("moe", 0, "margin of error for early-stopping campaigns (fimodels; 0 disables)")
	seed := flag.Int64("seed", 1, "campaign seed")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
	jsonOut := flag.Bool("json", false, "also write BENCH_<id>.json with machine-readable results")
	flag.Parse()
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintf(os.Stderr, "usage: haftbench [flags] id...\navailable: %s all\n",
			strings.Join(haft.Experiments(), " "))
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = haft.Experiments()
	}
	opts := haft.DefaultExperimentOptions()
	opts.Scale = *scale
	opts.Injections = *injections
	opts.MOE = *moe
	opts.Seed = *seed
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	for _, id := range ids {
		start := time.Now()
		out, data, err := haft.ExperimentFull(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haftbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		elapsed := time.Since(start)
		if *jsonOut {
			doc := map[string]any{
				"experiment": id,
				"command":    strings.Join(append([]string{"haftbench"}, os.Args[1:]...), " "),
				"result":     data,
			}
			if rev := vcsRevision(); rev != "" {
				doc["commit"] = rev
			}
			b, err := json.MarshalIndent(doc, "", "  ")
			if err == nil {
				name := "BENCH_" + benchFile(id) + ".json"
				if err = os.WriteFile(name, append(b, '\n'), 0o644); err == nil {
					fmt.Printf("[wrote %s]\n", name)
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "haftbench: %s: json: %v\n", id, err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s took %s]\n\n", id, elapsed.Round(time.Millisecond))
	}
}

// vcsRevision returns the commit the binary was built from, if the
// build recorded one ("+dirty" when the tree had uncommitted changes).
func vcsRevision() string {
	var rev, dirty string
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				rev = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// benchFile maps an experiment id to its BENCH_<name>.json stem where
// the two differ.
func benchFile(id string) string {
	if id == "tmrcompare" {
		return "tmr"
	}
	return id
}
