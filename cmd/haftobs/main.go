// Command haftobs is the cluster observability toolchain: it scrapes
// per-process event rings into one clock-aligned cluster trace, merges
// sharded collections, lists forensic flight bundles, and replays a
// bundle with stepwise dispatch to localize the instruction a
// detected corruption first diverged at.
//
// Usage:
//
//	haftobs collect -nodes router=http://127.0.0.1:7980,node1=http://127.0.0.1:7981
//	                [-out trace.json] [-rounds 1] [-interval 1s] [-canonical]
//	haftobs merge   [-out merged.json] [-canonical] trace1.json trace2.json ...
//	haftobs flight  -dir bundles/
//	haftobs replay  -bundle bundles/node1-flight-0000-sdc-audit.json
//	                [-require-localized]
//	haftobs check   -trace merged.json [-min-linked 0.99]
//
// collect polls every node's /trace?raw=1 endpoint (with an
// incremental ?since= cursor across rounds), clock-aligns each ring
// via the scrape round-trip offset handshake, and writes the merged
// trace as JSON. -canonical zeroes the scrape-dependent fields and
// orders events by (node, seq) so two collections that observed the
// same events are byte-identical — the form to diff or golden-test.
//
// merge unions previously collected traces (sharded collectors,
// repeated runs) with (node, seq) deduplication.
//
// flight lists the bundles a recorder directory holds, one line each.
//
// replay re-executes a bundle's batch with stepwise dispatch —
// once clean, once with the recorded faults re-injected — and reports
// the first divergent instruction with function/line attribution.
// -require-localized exits nonzero unless the divergence maps back to
// an injected fault site (the CI gate).
//
// check computes the cross-node linkage fraction of a merged trace
// (how many trace ids appear on at least two nodes) and exits nonzero
// below -min-linked.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "collect":
		err = runCollect(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "flight":
		err = runFlight(os.Args[2:])
	case "replay":
		err = runReplay(os.Args[2:])
	case "check":
		err = runCheck(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "haftobs: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "haftobs: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  haftobs collect -nodes name=url[,name=url...] [-out file] [-rounds n] [-interval d] [-canonical]
  haftobs merge   [-out file] [-canonical] trace.json ...
  haftobs flight  -dir bundles/
  haftobs replay  -bundle file [-require-localized]
  haftobs check   -trace file [-min-linked 0.99]`)
}

// parseTargets splits "name=url,name=url" into scrape targets.
func parseTargets(s string) ([]obs.ScrapeTarget, error) {
	var targets []obs.ScrapeTarget
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -nodes entry %q (want name=url)", part)
		}
		targets = append(targets, obs.ScrapeTarget{Node: name, URL: strings.TrimSuffix(url, "/")})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("-nodes is required (name=url[,name=url...])")
	}
	return targets, nil
}

// writeTrace writes the trace to path ("" or "-" for stdout).
func writeTrace(t obs.ClusterTrace, path string, canonical bool) error {
	data := t.Encode()
	if canonical {
		data = t.EncodeCanonical()
	}
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("haftobs: wrote %s (%d nodes, %d events)\n", path, len(t.Nodes), len(t.Events))
	return nil
}

func runCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	nodes := fs.String("nodes", "", "comma-separated name=url debug endpoints (required)")
	out := fs.String("out", "", "output file (default stdout)")
	rounds := fs.Int("rounds", 1, "scrape rounds (incremental via ?since= cursors)")
	interval := fs.Duration("interval", time.Second, "delay between rounds")
	canonical := fs.Bool("canonical", false, "canonical encoding (scrape-invariant, for diffing)")
	fs.Parse(args)

	targets, err := parseTargets(*nodes)
	if err != nil {
		return err
	}
	col := obs.NewCollector(targets...)
	var merged obs.ClusterTrace
	for i := 0; i < *rounds; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		t, err := col.Scrape()
		if err != nil {
			// Partial scrapes still carry the survivors' events; report
			// and keep what arrived.
			fmt.Fprintf(os.Stderr, "haftobs: %v\n", err)
		}
		merged = obs.Merge(merged, t)
	}
	rep := merged.LinkReport()
	fmt.Fprintf(os.Stderr, "haftobs: %d events, %d traces, %d cross-node linked (%.1f%%)\n",
		len(merged.Events), rep.Traces, rep.Linked, rep.Fraction*100)
	return writeTrace(merged, *out, *canonical)
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "output file (default stdout)")
	canonical := fs.Bool("canonical", false, "canonical encoding (scrape-invariant, for diffing)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: no trace files given")
	}
	traces := make([]obs.ClusterTrace, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		t, err := obs.DecodeClusterTrace(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		traces = append(traces, t)
	}
	return writeTrace(obs.Merge(traces...), *out, *canonical)
}

func runFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	dir := fs.String("dir", "", "flight bundle directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("flight: -dir is required")
	}
	paths, err := filepath.Glob(filepath.Join(*dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	n := 0
	for _, path := range paths {
		b, err := obs.LoadFlightBundle(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "haftobs: skip %s: %v\n", path, err)
			continue
		}
		n++
		trace := b.Trace
		if trace == "" {
			trace = "-"
		}
		fmt.Printf("%-48s %-14s node=%-8s trace=%-20s status=%-12s faults=%d\n",
			filepath.Base(path), b.Kind, b.Node, trace, orDash(b.Status), len(b.Faults))
	}
	fmt.Printf("haftobs: %d bundle(s) in %s\n", n, *dir)
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	path := fs.String("bundle", "", "flight bundle file (required)")
	requireLocalized := fs.Bool("require-localized", false,
		"exit nonzero unless the divergence localizes to an injected fault site")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("replay: -bundle is required")
	}
	b, err := obs.LoadFlightBundle(*path)
	if err != nil {
		return err
	}
	rep, err := serve.ReplayBundle(b)
	if err != nil {
		return err
	}
	fmt.Println(rep.Render())
	if *requireLocalized && !rep.Localized {
		return fmt.Errorf("replay: divergence not localized to an injected fault site")
	}
	return nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	path := fs.String("trace", "", "merged cluster trace file (required)")
	minLinked := fs.Float64("min-linked", 0.99, "minimum cross-node linked fraction")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("check: -trace is required")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	t, err := obs.DecodeClusterTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *path, err)
	}
	rep := t.LinkReport()
	fmt.Printf("haftobs: %d traces, %d cross-node linked (%.2f%%), threshold %.2f%%\n",
		rep.Traces, rep.Linked, rep.Fraction*100, *minLinked*100)
	if rep.Traces == 0 {
		return fmt.Errorf("check: trace holds no trace ids")
	}
	if rep.Fraction < *minLinked {
		return fmt.Errorf("check: linked fraction %.4f below %.4f", rep.Fraction, *minLinked)
	}
	return nil
}
