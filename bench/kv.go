package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/internal/ycsb"
)

// Shape of the serving workloads. Every node is the default KV program
// (1024 records, ValueWork 4, full HAFT) with host-side verification
// on; clients are closed-loop, one per core.
const (
	kvBatch      = 32
	kvQueueDepth = 1024
	scanLen      = 32
	nSlices      = 5
)

func nodeConfig(nproc int, seed int64) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Pool = nproc
	cfg.Batch = kvBatch
	cfg.QueueDepth = kvQueueDepth
	cfg.Verify = true
	cfg.SEURate = 0
	cfg.Seed = seed
	return cfg
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opScan
	numOpKinds
)

// kvClient is one closed-loop caller: it sends its next operation only
// after the previous reply arrived.
type kvClient struct {
	do   func(req serve.Request) (uint64, error)
	scan func(key uint64, n int) ([]uint64, error)
}

// kvSample is one timed operation, packed into eight bytes: the sample
// buffers are allocated in full before the load starts and stay small
// beside the server's own heap, so the garbage collector runs at the
// same pace from the first slice to the last. (Buffers that grew with
// the run made it collect less and less often, and every run sped up
// by a tenth from its first slice to its last.)
type kvSample struct {
	latNs uint32 // saturates at 4.29 s
	slice uint8
	kind  opKind
}

// maxOpsPerSec sizes the sample buffers: no client here completes more.
const maxOpsPerSec = 50_000

// kvLoad is a YCSB-A stream (zipfian keys, half reads, half writes).
type kvLoad struct {
	records, valueWork int
	// scanEvery makes every n-th operation a scan of scanLen keys
	// (0: point operations only).
	scanEvery int
	seed      int64
}

// kvWindow is the outcome of one load run: the samples that completed
// after the warm-up, cut into nSlices equal slices.
type kvWindow struct {
	sliceLen time.Duration
	// lat[slice][kind] holds latencies in µs.
	lat  [nSlices][numOpKinds][]float64
	ops  int
	cost cost
}

// run drives the clients for warm+dur, verifies every reply against
// workloads.KVReference (counted in r), and returns the timed part.
func (l kvLoad) run(r *results, clients []kvClient, warm, dur time.Duration) *kvWindow {
	w := ycsb.WorkloadA(l.records)
	start := time.Now()
	stop := start.Add(warm + dur)
	sliceLen := dur / nSlices
	perClient := make([][]kvSample, len(clients))
	for ci := range perClient {
		perClient[ci] = make([]kvSample, 0, int(dur.Seconds()*maxOpsPerSec))
	}
	type tally struct {
		attempted, failed int
		firstErr          string
	}
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c kvClient) {
			defer wg.Done()
			gen := ycsb.NewGenerator(w, l.seed+int64(ci)*1000003)
			t := &tallies[ci]
			fail := func(format string, a ...any) {
				t.failed++
				if t.firstErr == "" {
					t.firstErr = fmt.Sprintf(format, a...)
				}
			}
			// record keeps an operation that ended in the timed part.
			record := func(t0 time.Time, kind opKind) {
				end := time.Now()
				if since := end.Sub(start) - warm; since >= 0 {
					perClient[ci] = append(perClient[ci], kvSample{
						latNs: uint32(min(end.Sub(t0), time.Duration(1<<32-1))),
						slice: uint8(min(int(since/sliceLen), nSlices-1)),
						kind:  kind,
					})
				}
			}
			for n := 1; ; n++ {
				g := gen.Next()
				t0 := time.Now()
				if !t0.Before(stop) {
					break
				}
				t.attempted++
				if l.scanEvery > 0 && n%l.scanEvery == 0 {
					vals, err := c.scan(g.Key, scanLen)
					record(t0, opScan)
					if err != nil {
						fail("scan %d: %v", g.Key, err)
						continue
					}
					for i, v := range vals {
						k := (g.Key + uint64(i)) % uint64(l.records)
						if v != workloads.KVReference(workloads.KVRequestWord(false, k, 0), l.valueWork) {
							fail("scan %d: wrong reply for key %d", g.Key, k)
							break
						}
					}
					continue
				}
				req, kind := serve.Request{Key: g.Key}, opRead
				if g.Op == ycsb.OpWrite {
					req, kind = serve.Request{Write: true, Key: g.Key, Value: g.Key*2654435761 + uint64(ci)}, opWrite
				}
				v, err := c.do(req)
				record(t0, kind)
				if err != nil {
					fail("%+v: %v", req, err)
				} else if v != workloads.KVReference(workloads.KVRequestWord(req.Write, req.Key, req.Value), l.valueWork) {
					fail("%+v: wrong reply %#x", req, v)
				}
			}
		}(ci, c)
	}
	time.Sleep(time.Until(start.Add(warm)))
	before := readProc()
	wg.Wait()
	after := readProc()

	win := &kvWindow{sliceLen: sliceLen}
	for _, samples := range perClient {
		for _, s := range samples {
			win.lat[s.slice][s.kind] = append(win.lat[s.slice][s.kind], float64(s.latNs)/1e3)
			win.ops++
		}
	}
	win.cost = costBetween(before, after, win.ops)
	for _, t := range tallies {
		r.Attempted += t.attempted
		r.Failed += t.failed
		if t.firstErr != "" && len(r.Failures) < 10 {
			r.Failures = append(r.Failures, t.firstErr)
		}
	}
	return win
}

// kinds returns, per slice, the latencies of the given op kinds pooled.
func (w *kvWindow) kinds(ks ...opKind) [][]float64 {
	out := make([][]float64, nSlices)
	for si := range w.lat {
		for _, k := range ks {
			out[si] = append(out[si], w.lat[si][k]...)
		}
	}
	return out
}

func (w *kvWindow) count(ks ...opKind) int {
	n := 0
	for si := range w.lat {
		for _, k := range ks {
			n += len(w.lat[si][k])
		}
	}
	return n
}

// rates is each slice's completed operations per second (a scan is one
// operation).
func (w *kvWindow) rates() []float64 {
	var rates []float64
	for si := range w.lat {
		n := len(w.lat[si][opRead]) + len(w.lat[si][opWrite]) + len(w.lat[si][opScan])
		rates = append(rates, float64(n)/w.sliceLen.Seconds())
	}
	return rates
}

func (w *kvWindow) opsPerSec() float64 { return median(w.rates()) }

// p50 is the median over slices of the per-slice median latency.
func (w *kvWindow) p50(ks ...opKind) float64 { return sliceMedian(w.kinds(ks...), p(0.5)) }

// tailOf reports a tail percentile of the point operations. Within a
// slice it falls back to a lower percentile when fewer than ten samples
// lie beyond the wanted one; the lowest percentile any slice used is
// returned so the caller can say so.
func (w *kvWindow) tailOf(want float64) (v, used float64) {
	used = want
	v = sliceMedian(w.kinds(opRead, opWrite), func(sorted []float64) float64 {
		x, u := tail(sorted, want)
		used = min(used, u)
		return x
	})
	return v, used
}

// endToEnd reports the window as the workload's end-to-end metrics.
func (w *kvWindow) endToEnd(r *results) {
	points := w.count(opRead, opWrite)
	r.setSlices("ops_per_s", w.rates(), w.ops)
	r.setSlices("op_p50_us", perSlice(w.kinds(opRead, opWrite), p(0.5)), points)
	r.setSlices("op_p90_us", perSlice(w.kinds(opRead, opWrite), p(0.9)), points)
	r.set("cpu_us_per_op", w.cost.cpuUsPerOp, w.ops)
	r.set("alloc_kb_per_op", w.cost.allocKBPerOp, w.ops)
}

// windowOf splits a run's --seconds budget into a window of the given
// share and its warm-up (a quarter of the window, at most 5 s: the
// first seconds of a serving run had a p99 two to three times that of
// the rest).
func windowOf(seconds int, share float64) (warm, dur time.Duration) {
	dur = time.Duration(float64(seconds) * share * float64(time.Second))
	warm = min(dur/4, 5*time.Second)
	return warm, dur
}
