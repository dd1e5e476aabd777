// Command haftscenario drives the scenario matrix (internal/scenario):
// list the declared coverage, run a selection into a results bundle,
// and diff a bundle against a golden.
//
// Usage:
//
//	haftscenario list [-attr smoke] [-name fi/flows] [-runs] [-seed 1]
//	haftscenario run  [-attr smoke] [-name ...] [-seed 1] [-out bundle.json] [-v]
//	haftscenario diff golden.json current.json
//
// Every record of `run` is a seeded campaign (or fault-free health
// run) checked against its stepwise twin. `diff` exits 1 on
// regressions — missing runs, outcome changes, or any drift in a
// pinned result — which is the CI golden gate.
//
// Exit status: 0 on success, 1 on regressions or failed records, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: haftscenario {list|run|diff} [flags]  (haftscenario <cmd> -h for flags)")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "haftscenario:", err)
	os.Exit(2)
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// selection installs the shared selection flags and returns the filter
// and harness seed they fill once fs is parsed.
func selection(fs *flag.FlagSet) (*scenario.Filter, *int64) {
	f := new(scenario.Filter)
	fs.Var((*multiFlag)(&f.Names), "name", "select a scenario by name (repeatable)")
	fs.Var((*multiFlag)(&f.Attrs), "attr", "require an attribute, e.g. smoke (repeatable)")
	return f, fs.Int64("seed", 1, "harness seed (every run seed derives from it)")
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	f, seed := selection(fs)
	showRuns := fs.Bool("runs", false, "list expanded runs instead of scenarios")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	reg := scenario.DefaultRegistry()
	runs := reg.Select(*seed, *f)
	if *showRuns {
		for i, r := range runs {
			fmt.Printf("%4d  %-64s seed=%d\n", i, r.Key(), r.Seed)
		}
		fmt.Printf("%d run(s)\n", len(runs))
		return
	}
	n := 0
	for _, s := range reg.Scenarios() {
		if !f.Match(s) {
			continue
		}
		n++
		fmt.Printf("%-28s attrs=%s\n%-28s %s\n", s.Name, strings.Join(s.Attrs, ","), "", s.Desc)
	}
	fmt.Printf("%d scenario(s), %d run(s)\n", n, len(runs))
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	f, seed := selection(fs)
	out := fs.String("out", "", "write the results bundle to this file (default stdout)")
	verbose := fs.Bool("v", false, "print one line per completed record")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	cfg := scenario.Config{Filter: *f, Seed: *seed}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	start := time.Now()
	bundle, err := scenario.DefaultRegistry().Run(cfg)
	if err != nil {
		fatal(err)
	}
	data, err := bundle.Encode()
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(data) //nolint:errcheck // best-effort stdout
	}
	s := bundle.Summary
	fmt.Fprintf(os.Stderr, "matrix: %d twin-checked record(s) in %s — pass %d fail %d\n",
		s.Runs, time.Since(start).Round(time.Millisecond), s.ByOutcome["pass"], s.ByOutcome["fail"])
	if len(s.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "failed: %s\n", strings.Join(s.Failed, ", "))
		os.Exit(1)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("diff needs exactly two bundle files: golden current"))
	}
	var bundles [2]*scenario.Bundle
	for i := range bundles {
		data, err := os.ReadFile(fs.Arg(i))
		if err != nil {
			fatal(err)
		}
		if bundles[i], err = scenario.DecodeBundle(data); err != nil {
			fatal(err)
		}
	}
	rep := scenario.Diff(bundles[0], bundles[1])
	fmt.Print(rep.String())
	if rep.Regression() {
		os.Exit(1)
	}
}
