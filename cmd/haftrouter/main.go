// Command haftrouter is the cluster routing front end: it shards the
// keyspace over a set of haftserve nodes with a consistent-hash ring,
// replicates every shard R ways, and serves the same text protocol as
// a single haftserve — so any client (cmd/haftload included) can point
// at the router unchanged and transparently get replication, reply
// voting, and failover.
//
// Usage:
//
//	haftrouter -nodes 127.0.0.1:7171,127.0.0.1:7172,127.0.0.1:7173
//	           [-addr :7170] [-replicas 3] [-vnodes 64] [-shards 64]
//	           [-conns-per-node 8] [-health-interval 100ms]
//	           [-metrics 0] [-json] [-debug-addr addr]
//	           [-node router] [-flight-dir dir]
//
// Every request carries a trace id (client-provided tid=<hex> or
// router-minted) that the router stamps on its dispatch/vote spans and
// forwards to every replica, so "haftobs collect" can join the router
// and node rings into one causally linked cluster trace. -flight-dir
// makes every masked (outvoted) reply write a forensic JSON bundle.
//
// Reads fan out to every healthy replica of the key's shard and only a
// majority-agreed reply is delivered; a disagreeing replica's reply is
// masked, counted as a detected corruption, and enough suspicion
// quarantines the node. Writes go through a sequence-numbered per-shard
// log and are acknowledged at quorum; the log is replayed into nodes
// returning from failure. On SIGINT/SIGTERM the router prints its final
// cluster metrics and exits.
//
// -debug-addr starts an HTTP debug listener: /metrics (Prometheus text
// exposition of the cluster metrics), /trace (the router's event ring
// as Chrome trace JSON), /healthz (per-node states; 503 when any shard
// is below read quorum).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	haft "repro"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7170", "router listen address")
	nodes := flag.String("nodes", "", "comma-separated haftserve node addresses (required)")
	replicas := flag.Int("replicas", 3, "replication factor R (capped at the node count)")
	vnodes := flag.Int("vnodes", 64, "virtual ring points per node")
	shards := flag.Int("shards", 64, "fixed shard count")
	connsPerNode := flag.Int("conns-per-node", 8, "connection pool bound per node")
	healthInterval := flag.Duration("health-interval", 100*time.Millisecond, "health probe period")
	metricsEvery := flag.Int("metrics", 0, "print a metrics snapshot every N seconds (0 = off)")
	jsonOut := flag.Bool("json", false, "print metrics as JSON instead of a table")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listener: /metrics, /trace, /healthz, /debug/pprof/ (empty = off)")
	node := flag.String("node", "", "router name in traces and flight bundles (default \"router\")")
	flightDir := flag.String("flight-dir", "", "write a forensic flight bundle per masked reply into this directory (empty = memory only)")
	flag.Parse()

	addrs := strings.FieldsFunc(*nodes, func(r rune) bool { return r == ',' || r == ' ' })
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "haftrouter: -nodes is required (comma-separated haftserve addresses)")
		os.Exit(2)
	}

	backends := make([]haft.ClusterBackend, len(addrs))
	for i, a := range addrs {
		backends[i] = haft.NewRemoteBackend(a, a, *connsPerNode)
	}

	cfg := haft.DefaultClusterConfig()
	cfg.Replicas = *replicas
	cfg.VNodes = *vnodes
	cfg.Shards = *shards
	cfg.HealthInterval = *healthInterval
	cfg.Node = *node
	cfg.FlightDir = *flightDir
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "haftrouter: %v\n", err)
			os.Exit(1)
		}
	}

	c, err := haft.NewCluster(backends, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haftrouter: %v\n", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		dbg, err := haft.ListenDebug(*debugAddr, c.DebugHandler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "haftrouter: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("haftrouter: debug endpoints on http://%s/{metrics,trace,healthz}\n", dbg.Addr)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haftrouter: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("haftrouter: %d nodes, R=%d (quorum %d), %d shards x %d vnodes, listening on %s\n",
		len(addrs), c.Replicas(), c.Quorum(), *shards, *vnodes, l.Addr())

	dump := func(s haft.ClusterSnapshot) {
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
				dump(c.Metrics())
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- c.ServeListener(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("\nhaftrouter: shutting down")
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "haftrouter: %v\n", err)
		}
	}
	// Final audit before the shutdown dump: converge replicas, then
	// refresh the invariant counters (lost acked writes must be zero).
	c.SyncReplicas()
	c.CheckInvariants()
	c.Close()
	dump(c.Metrics())
}
