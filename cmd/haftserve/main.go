// Command haftserve runs the hardened request-serving layer on a
// loopback TCP endpoint: a warm pool of HAFT-hardened VM instances
// serving the §6.1 key-value program behind a bounded queue, with
// fault-aware retries and an optional live SEU injection campaign.
//
// Usage:
//
//	haftserve [-addr :7171] [-pool 8] [-batch 32] [-queue 1024]
//	          [-seu 0] [-records 1024] [-valuework 4] [-mode haft]
//	          [-metrics 0] [-json] [-debug-addr addr]
//	          [-node name] [-flight-dir dir]
//
// -node names this process in traces and forensic bundles; -flight-dir
// makes every detected corruption (ILR detection, TMR correction,
// verifier reject, crash, hang) write a JSON flight bundle there,
// replayable with "haftobs replay".
//
// Drive it with cmd/haftload (or any client of the text protocol:
// "get <k>", "put <k> <v>", "scan <k> <n>", "stats", "ping"). On
// SIGINT/SIGTERM it prints the final metrics and exits; -metrics N
// additionally prints a snapshot every N seconds; -json switches both
// to machine-readable JSON.
//
// -debug-addr starts an HTTP debug listener with three endpoints:
// /metrics (Prometheus text exposition of the live serving metrics),
// /trace (the observability ring as Chrome trace JSON — load it in
// chrome://tracing or Perfetto), and /healthz (pool and quarantine
// state; 503 once the server is closed).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	haft "repro"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "listen address")
	pool := flag.Int("pool", 8, "warm VM instances (= worker goroutines)")
	batch := flag.Int("batch", 32, "max requests per machine run")
	queue := flag.Int("queue", 1024, "request queue bound (backpressure)")
	seu := flag.Float64("seu", 0, "injected SEUs per request (0 = no campaign)")
	records := flag.Int("records", 1024, "key range")
	valueWork := flag.Int("valuework", 4, "value (de)serialization rounds per request")
	mode := flag.String("mode", "haft", "hardening mode: native, ilr, tx, haft, tmr")
	retries := flag.Int("retries", 3, "max retries per request after faulted runs")
	quarantine := flag.Int("quarantine", 3, "consecutive faulted runs before instance rebuild")
	seed := flag.Int64("seed", 1, "injection campaign seed")
	metricsEvery := flag.Int("metrics", 0, "print a metrics snapshot every N seconds (0 = off)")
	jsonOut := flag.Bool("json", false, "print metrics as JSON instead of a table")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listener: /metrics, /trace, /healthz, /debug/pprof/ (empty = off)")
	node := flag.String("node", "", "node name in traces and flight bundles (default \"serve\")")
	flightDir := flag.String("flight-dir", "", "write a forensic flight bundle per detected corruption into this directory (empty = memory only)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"graceful-shutdown drain bound on SIGINT/SIGTERM (0 = wait forever)")
	flag.Parse()

	cfg := haft.DefaultServeConfig()
	cfg.Pool = *pool
	cfg.Batch = *batch
	cfg.QueueDepth = *queue
	cfg.SEURate = *seu
	cfg.KV.Records = *records
	cfg.KV.ValueWork = *valueWork
	cfg.MaxRetries = *retries
	cfg.QuarantineAfter = *quarantine
	cfg.Seed = *seed
	cfg.Node = *node
	cfg.FlightDir = *flightDir
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
			os.Exit(1)
		}
	}
	var err error
	if cfg.Harden.Mode, err = haft.ParseMode(*mode); err != nil {
		fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
		os.Exit(2)
	}

	srv, err := haft.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		dbg, err := haft.ListenDebug(*debugAddr, srv.DebugHandler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("haftserve: debug endpoints on http://%s/{metrics,trace,healthz}\n", dbg.Addr)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("haftserve: %s mode, pool=%d batch=%d queue=%d seu=%g, listening on %s\n",
		*mode, *pool, *batch, *queue, *seu, l.Addr())

	dump := func(s haft.ServeSnapshot) {
		if *jsonOut {
			fmt.Println(string(s.JSON()))
		} else {
			fmt.Println(s.Summary())
		}
	}

	if *metricsEvery > 0 {
		go func() {
			t := time.NewTicker(time.Duration(*metricsEvery) * time.Second)
			defer t.Stop()
			for range t.C {
				dump(srv.Metrics())
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ServeListener(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		// Graceful drain: stop accepting, let queued and in-flight
		// requests finish, then tear the pool down. A second signal or
		// the drain timeout forces an immediate close.
		fmt.Println("\nhaftserve: draining")
		go func() {
			<-sig
			fmt.Println("haftserve: forced shutdown")
			srv.Close()
		}()
		if err := srv.Shutdown(*drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
		}
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "haftserve: %v\n", err)
		}
	}
	srv.Close()
	dump(srv.Metrics())
}
