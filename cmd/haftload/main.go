// Command haftload drives a running haftserve endpoint with
// YCSB-shaped load (§6.1): workload A (50% reads, zipfian) or D
// (95% reads, latest) over the loopback text protocol, open-loop at a
// target request rate (or closed-loop at maximum pressure with
// -rate 0), across several connections.
//
// Usage:
//
//	haftload [-addr 127.0.0.1:7171] [-workload A] [-rate 0]
//	         [-duration 10s] [-conns 8] [-records 1024]
//	         [-valuework 4] [-verify] [-seed 1] [-json]
//	         [-out results.json] [-trace] [-slowest 5]
//
// With -trace (the default) every request carries a client-minted
// 64-bit trace id over the wire ("tid=<hex>"), deterministically
// derived from the seed, connection, and request ordinal — the id the
// server and router stamp on their spans, so a slow or corrupted
// request found here can be chased through the merged cluster trace
// (cmd/haftobs) by its id. The summary prints the -slowest N request
// trace ids with their latencies.
//
// The endpoint can be a single haftserve or a haftrouter cluster front
// end — the wire protocol is identical. The final stats are whatever
// the endpoint's registry holds, one "name{labels} value" line per
// sample as its /metrics names them (a router's votes, masked
// corruptions and failovers; a node's runs, aborts and faults); -json
// prints them as one JSON object, and -out writes the client-side
// results with those stats attached.
//
// Connections retry the initial dial with exponential backoff until
// the load deadline, so haftload can be launched before haftserve
// finishes binding its listener.
//
// Every response is optionally verified against the reference reply
// function — a mismatch is a silently corrupted response that slipped
// past the server's hardening, the number the paper's SDC columns
// care about. At the end it prints client-side throughput and latency
// percentiles plus the endpoint's own metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	haft "repro"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// clientResult is the machine-readable summary -out writes: the
// client-side view of one load run, with the endpoint's own stats
// attached.
type clientResult struct {
	Workload      string      `json:"workload"`
	Conns         int         `json:"conns"`
	Seconds       float64     `json:"seconds"`
	Sent          uint64      `json:"sent"`
	OK            uint64      `json:"ok"`
	Failed        uint64      `json:"failed"`
	Corrupted     uint64      `json:"corrupted"`
	ThroughputRPS float64     `json:"throughput_rps"`
	LatencyP50    float64     `json:"latency_p50_s"`
	LatencyP95    float64     `json:"latency_p95_s"`
	LatencyP99    float64     `json:"latency_p99_s"`
	Slowest       []slowTrace `json:"slowest,omitempty"`
	Server        obs.View    `json:"server,omitempty"`
}

// slowTrace names one of the slowest requests by its trace id, the
// handle for chasing it through the merged cluster trace.
type slowTrace struct {
	Trace   string  `json:"trace"`
	Seconds float64 `json:"seconds"`
	Write   bool    `json:"write"`
	Key     uint64  `json:"key"`
	Conn    int     `json:"conn"`
}

// sample is one successful request's client-side measurement.
type sample struct {
	lat   time.Duration
	tid   uint64
	write bool
	key   uint64
	conn  int
}

// mintTrace derives the deterministic nonzero trace id for request n
// on connection conn (splitmix64 over a seed/conn/ordinal mix).
func mintTrace(seed int64, conn int, n uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(conn)<<32 + n + 1
	for {
		if tid := obs.SplitMix64(x); tid != 0 {
			return tid
		}
		x++
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "haftserve address")
	workload := flag.String("workload", "A", "YCSB workload: A or D")
	rate := flag.Float64("rate", 0, "open-loop request rate in req/s (0 = closed-loop max)")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	conns := flag.Int("conns", 8, "client connections")
	records := flag.Int("records", 1024, "key range (must match the server)")
	valueWork := flag.Int("valuework", 4, "server value work (for -verify)")
	verify := flag.Bool("verify", true, "verify every response against the reference function")
	seed := flag.Int64("seed", 1, "workload generator seed")
	jsonOut := flag.Bool("json", false, "print the endpoint's stats as one JSON object")
	out := flag.String("out", "", "write the client-side results (plus the endpoint's stats) as JSON to this file")
	trace := flag.Bool("trace", true, "tag every request with a deterministic trace id (tid=<hex>)")
	slowest := flag.Int("slowest", 5, "print the N slowest requests' trace ids in the summary")
	flag.Parse()

	var w ycsb.Workload
	switch *workload {
	case "A", "a":
		w = ycsb.WorkloadA(*records)
	case "D", "d":
		w = ycsb.WorkloadD(*records)
	default:
		fmt.Fprintf(os.Stderr, "haftload: unknown workload %q (want A or D)\n", *workload)
		os.Exit(2)
	}

	// Open-loop pacing: a single pacer feeds tokens at the target
	// rate; connections consume them. A buffered token channel lets
	// queueing delay build up when the server falls behind — the
	// open-loop property. rate 0 skips tokens entirely (closed loop).
	var tokens chan struct{}
	deadline := time.Now().Add(*duration)
	if *rate > 0 {
		tokens = make(chan struct{}, 1<<16)
		go func() {
			interval := time.Duration(float64(time.Second) / *rate)
			if interval <= 0 {
				interval = time.Nanosecond
			}
			t := time.NewTicker(interval)
			defer t.Stop()
			for time.Now().Before(deadline) {
				<-t.C
				select {
				case tokens <- struct{}{}:
				default: // token bucket full; shed rather than block the pacer
				}
			}
			close(tokens)
		}()
	}

	var sent, failed, corrupted, dialAttempts atomic.Uint64
	lats := make([][]sample, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, attempts, err := dialRetry(*addr, deadline)
			dialAttempts.Add(uint64(attempts))
			if err != nil {
				fmt.Fprintf(os.Stderr, "haftload: conn %d: %v\n", i, err)
				return
			}
			defer c.Close()
			gen := ycsb.NewGenerator(w, *seed+int64(i)*1000003)
			var mine []sample
			var n uint64
			for time.Now().Before(deadline) {
				if tokens != nil {
					if _, ok := <-tokens; !ok {
						break
					}
				}
				r := gen.Next()
				req := haft.ServeRequest{Write: r.Op == ycsb.OpWrite, Key: r.Key}
				if req.Write {
					req.Value = r.Key*2654435761 + uint64(i)
				}
				var tid uint64
				if *trace {
					tid = mintTrace(*seed, i, n)
				}
				n++
				t0 := time.Now()
				var v uint64
				var err error
				if req.Write {
					v, err = c.PutTraced(req.Key, req.Value, tid)
				} else {
					v, err = c.GetTraced(req.Key, tid)
				}
				sent.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				mine = append(mine, sample{lat: time.Since(t0), tid: tid,
					write: req.Write, key: req.Key, conn: i})
				if *verify && v != haft.ServeReference(req, *valueWork) {
					corrupted.Add(1)
					if tid != 0 {
						fmt.Fprintf(os.Stderr, "haftload: corrupted reply, trace 0x%x (conn %d key %d)\n",
							tid, i, req.Key)
					}
				}
			}
			lats[i] = mine
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lat < all[j].lat })
	pct := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)))
		if i >= len(all) {
			i = len(all) - 1
		}
		return all[i].lat
	}
	// The tail, newest-worst first: the trace ids worth chasing through
	// the merged cluster trace.
	var slow []slowTrace
	if *trace && *slowest > 0 {
		for i := len(all) - 1; i >= 0 && len(slow) < *slowest; i-- {
			s := all[i]
			slow = append(slow, slowTrace{Trace: fmt.Sprintf("0x%x", s.tid),
				Seconds: s.lat.Seconds(), Write: s.write, Key: s.key, Conn: s.conn})
		}
	}

	ok := uint64(len(all))
	fmt.Printf("haftload: workload %s, %d conns (%d dial attempts), %s\n",
		w.Name, *conns, dialAttempts.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("  sent        %d\n", sent.Load())
	fmt.Printf("  ok          %d\n", ok)
	fmt.Printf("  failed      %d\n", failed.Load())
	fmt.Printf("  corrupted   %d\n", corrupted.Load())
	fmt.Printf("  throughput  %.0f req/s\n", float64(ok)/elapsed.Seconds())
	fmt.Printf("  latency     p50=%s p95=%s p99=%s\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	for i, s := range slow {
		op := "get"
		if s.Write {
			op = "put"
		}
		fmt.Printf("  slow #%d     %s  %.3fms  %s key=%d conn=%d\n",
			i+1, s.Trace, s.Seconds*1e3, op, s.Key, s.Conn)
	}

	// Pull the endpoint's own accounting over the same wire: a node's
	// or a router's registry, each under its own names.
	var stats obs.View
	if c, err := haft.DialServer(*addr); err == nil {
		if stats, err = c.Stats(); err == nil {
			if *jsonOut {
				json.NewEncoder(os.Stdout).Encode(stats)
			} else {
				stats.WriteText(os.Stdout)
			}
		}
		c.Close()
	}

	if *out != "" {
		res := clientResult{
			Workload:      w.Name,
			Conns:         *conns,
			Seconds:       elapsed.Seconds(),
			Sent:          sent.Load(),
			OK:            ok,
			Failed:        failed.Load(),
			Corrupted:     corrupted.Load(),
			ThroughputRPS: float64(ok) / elapsed.Seconds(),
			LatencyP50:    pct(0.50).Seconds(),
			LatencyP95:    pct(0.95).Seconds(),
			LatencyP99:    pct(0.99).Seconds(),
			Slowest:       slow,
			Server:        stats,
		}
		b, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "haftload: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("haftload: wrote %s\n", *out)
	}

	if corrupted.Load() > 0 {
		os.Exit(1)
	}
}

// dialRetry connects to the server, retrying with exponential backoff
// until it succeeds or the load deadline passes — so haftload can be
// started before (or concurrently with) haftserve without racing its
// listen socket. It returns how many dial attempts were made. The
// deadline check runs before the backoff sleep: once no retry can fit
// before the deadline, the final failure returns immediately instead
// of burning a last backoff interval asleep.
func dialRetry(addr string, deadline time.Time) (*haft.ServeConn, int, error) {
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for attempt := 1; ; attempt++ {
		c, err := haft.DialServer(addr)
		if err == nil {
			return c, attempt, nil
		}
		if !time.Now().Add(backoff).Before(deadline) {
			return nil, attempt, fmt.Errorf("dial %s: %w (gave up after %d attempts at the load deadline)",
				addr, err, attempt)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}
