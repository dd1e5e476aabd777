package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// faultSEURate is the injection rate of the untimed fault-on passes.
const faultSEURate = 0.02

// node is one serve.Server behind ServeListener on loopback.
type node struct {
	srv  *serve.Server
	addr string
	done chan error
}

func startNode(cfg serve.Config) (*node, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.ServeListener(l) }()
	return n, nil
}

// stop closes the server and waits for its accept loop to end.
func (n *node) stop() {
	n.srv.Close()
	<-n.done
}

func dialAll(addr string, n int) ([]*serve.Conn, error) {
	var conns []*serve.Conn
	for i := 0; i < n; i++ {
		c, err := serve.Dial(addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*serve.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

func connClients(conns []*serve.Conn) []kvClient {
	var cs []kvClient
	for _, c := range conns {
		cs = append(cs, kvClient{
			do: func(req serve.Request) (uint64, error) {
				if req.Write {
					return c.Put(req.Key, req.Value)
				}
				return c.Get(req.Key)
			},
			scan: c.Scan,
		})
	}
	return cs
}

// served is the serve-kv system under test: one node and nproc client
// connections.
type served struct {
	node  *node
	conns []*serve.Conn
	// newServer is how long serve.NewServer took.
	newServer time.Duration
}

func buildServed(cfg serve.Config, nconns int) (*served, error) {
	t0 := time.Now()
	n, err := startNode(cfg)
	if err != nil {
		return nil, err
	}
	s := &served{node: n, newServer: time.Since(t0)}
	if s.conns, err = dialAll(n.addr, nconns); err != nil {
		n.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) close() {
	closeAll(s.conns)
	s.node.stop()
}

func (s *served) load(e *env) kvLoad {
	return kvLoad{records: s.node.srv.Records(), valueWork: s.node.srv.ValueWork(), scanEvery: 16, seed: e.seed}
}

// gates are the serving invariants of a fault-free window.
func (s *served) gates(r *results) {
	m := s.node.srv.Metrics()
	r.check(m.CorruptedReplies == 0, "serve: %d corrupted replies delivered", m.CorruptedReplies)
	r.check(m.Retries == 0, "serve: %d retries with fault injection off", m.Retries)
	r.check(m.Failed == 0 && m.Rejected == 0, "serve: %d failed, %d rejected", m.Failed, m.Rejected)
}

func serveEndToEnd(e *env) error {
	s, err := setupMedian(e,
		func() (*served, error) { return buildServed(nodeConfig(e.nproc, e.seed), e.nproc) },
		(*served).close)
	if err != nil {
		return err
	}
	defer s.close()
	warm, dur := windowOf(e.seconds, 1)
	win := s.load(e).run(e.r, connClients(s.conns), warm, dur)
	win.endToEnd(e.r)
	s.gates(e.r)
	e.r.note("YCSB-A over %d loopback connections, every 16th op a scan of %d keys; %v warm-up, %d slices of %v",
		len(s.conns), scanLen, warm, nSlices, win.sliceLen)
	return nil
}

// reportTail sets a tail metric and notes when the sample count forced
// a lower percentile.
func reportTail(r *results, name string, win *kvWindow, want float64) {
	v, used := win.tailOf(want)
	r.set(name, v, win.count(opRead, opWrite))
	if used != want {
		r.note("%s: fewer than %d samples beyond p%g in a slice; p%g reported", name, beyond, want*100, used*100)
	}
}

func serveLayers(e *env) error {
	r := e.r
	var newMs []float64
	s, err := setupMedian(e, func() (*served, error) {
		s, err := buildServed(nodeConfig(e.nproc, e.seed), e.nproc)
		if err == nil {
			newMs = append(newMs, float64(s.newServer)/1e6)
		}
		return s, err
	}, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.set("serve.new_server_ms", median(newMs), len(newMs))
	load := s.load(e)

	// Untraced, over TCP: what a client sees, by op class.
	warm, dur := windowOf(e.seconds, 0.4)
	m0 := s.node.srv.Metrics()
	tcp := load.run(r, connClients(s.conns), warm, dur)
	m1 := s.node.srv.Metrics()
	s.gates(r)
	r.set("serve.read_p50_us", tcp.p50(opRead), tcp.count(opRead))
	r.set("serve.write_p50_us", tcp.p50(opWrite), tcp.count(opWrite))
	r.set("serve.scan_p50_us", tcp.p50(opScan), tcp.count(opScan))
	r.set("serve.scan_keys_per_s", scanLen/(tcp.p50(opScan)/1e6), tcp.count(opScan))
	reportTail(r, "serve.rtt_p99_us", tcp, 0.99)
	reportTail(r, "serve.rtt_p999_us", tcp, 0.999)
	r.set("serve.keys_per_run", float64(m1.Responses-m0.Responses)/float64(m1.Runs-m0.Runs), int(m1.Runs-m0.Runs))
	r.set("serve.queue_wait_p50_us", m1.QueueWaitP50*1e6, int(m1.Responses))
	r.set("serve.exec_p50_us", m1.ExecP50*1e6, int(m1.Responses))
	r.set("serve.retries", float64(m1.Retries), 1)
	r.set("serve.rejected", float64(m1.Rejected), 1)
	r.set("proc.allocs_per_op", tcp.cost.allocsPerOp, tcp.ops)

	// In process: Server.Do without the protocol, untraced then traced.
	warm, dur = windowOf(e.seconds, 0.125)
	srv := s.node.srv
	direct := func(wrap func(name string, f func())) []kvClient {
		cs := make([]kvClient, e.nproc)
		for i := range cs {
			cs[i] = kvClient{
				do: func(req serve.Request) (v uint64, err error) {
					wrap("serve.do", func() { v, err = srv.Do(req) })
					return v, err
				},
				scan: func(key uint64, n int) (vals []uint64, err error) {
					wrap("serve.scan", func() { vals, err = srv.Scan(key, n) })
					return vals, err
				},
			}
		}
		return cs
	}
	plain := load.run(r, direct(func(_ string, f func()) { f() }), warm, dur)
	doP50 := plain.p50(opRead, opWrite)
	r.set("serve.do_p50_us", doP50, plain.count(opRead, opWrite))
	r.set("serve.proto_p50_us", tcp.p50(opRead, opWrite)-doP50, tcp.count(opRead, opWrite))
	tr := newTracer()
	var reqID atomic.Uint64
	traced := load.run(r, direct(func(name string, f func()) {
		_, end := tr.begin(name, 0, reqID.Add(1))
		f()
		end()
	}), warm, dur)
	r.set("obs.trace_overhead_share", 1-traced.opsPerSec()/plain.opsPerSec(), traced.ops)
	spans := tr.snapshot()
	r.Layers = summarize(spans)
	if err := writeTrace(filepath.Join(outDir, "trace-"+wServe+".json"), wServe, spans); err != nil {
		return err
	}
	r.note("the protocol cost is the difference of medians: untraced TCP round trip minus in-process Server.Do; " +
		"the span tree is driven in process because the connection handler cannot be wrapped from outside")

	serveProbes(r, srv)
	if err := kvDirect(e); err != nil {
		return err
	}

	// Untimed pass with fault injection on: the retry and verify paths.
	cfg := nodeConfig(e.nproc, e.seed)
	cfg.SEURate = faultSEURate
	f, err := buildServed(cfg, e.nproc)
	if err != nil {
		return err
	}
	defer f.close()
	warm, dur = windowOf(e.seconds, 0.15)
	load.run(r, connClients(f.conns), 0, warm+dur)
	fm := f.node.srv.Metrics()
	r.check(fm.CorruptedReplies == 0, "serve: %d corrupted replies delivered under injection", fm.CorruptedReplies)
	r.set("serve.fault_retries", float64(fm.Retries), int(fm.InjectedFaults))
	r.set("serve.fault_verify_rejects", float64(fm.VerifyRejects), int(fm.InjectedFaults))
	return nil
}

// sink keeps the results of probe loops live, so the compiler cannot
// remove the calls.
var sink uint64

// serveProbes times the host-side pieces of a request that have public
// entry points.
func serveProbes(r *results, srv *serve.Server) {
	const n = 1 << 14
	words := make([]uint64, kvBatch)
	for i := range words {
		words[i] = workloads.KVRequestWord(i%2 == 0, uint64(i), uint64(i))
	}
	replies := make([]uint64, len(words))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for j, w := range words {
			replies[j] = workloads.KVReference(w, srv.ValueWork())
		}
		sink += workloads.KVReplyChecksum(replies)
	}
	r.set("serve.verify_ns_per_reply", float64(time.Since(t0))/float64(n*len(words)), n*len(words))
	var us []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		srv.Metrics()
		us = append(us, float64(time.Since(t0))/1e3)
	}
	r.set("serve.metrics_snapshot_us", median(us), probeReps)
}

// kvDirect drives the hardened KV program the way a pool worker does —
// Reset, Poke the batch, Run, Peek the replies — with batches of 1 and
// of kvBatch: the floor under a point operation and under a scan.
func kvDirect(e *env) error {
	kv := workloads.DefaultKVServeConfig()
	kv.MaxBatch = kvBatch
	prog := workloads.KVServe(kv)
	hcfg := core.DefaultConfig()
	hcfg.TxThreshold, hcfg.Blacklist = prog.TxThreshold, prog.Blacklist
	mod, err := core.Harden(prog.Module, hcfg)
	if err != nil {
		return err
	}
	mach := vm.NewFromProgram(vm.Compile(mod), 1, vmConfig(e.seed))
	reqs := mach.Mod.Global(workloads.KVReqsGlobal).Addr
	nreq := mach.Mod.Global(workloads.KVNReqGlobal).Addr
	repl := mach.Mod.Global(workloads.KVRepliesGlobal).Addr
	hp := *prog
	hp.Module = mod
	specs := hp.SpecsFor(1)
	const reps = 400
	var resetUs []float64
	for _, batch := range []int{1, kvBatch} {
		var us []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			mach.Reset()
			t1 := time.Now()
			words := make([]uint64, batch)
			for j := range words {
				words[j] = workloads.KVRequestWord(j%2 == 0, uint64((i+j)%kv.Records), uint64(j))
				mach.Poke(reqs+uint64(j)*8, words[j])
			}
			mach.Poke(nreq, uint64(batch))
			st := mach.Run(specs...)
			ok := st == vm.StatusOK
			for j, w := range words {
				ok = ok && mach.Peek(repl+uint64(j)*8) == workloads.KVReference(w, kv.ValueWork)
			}
			us = append(us, float64(time.Since(t1))/1e3)
			resetUs = append(resetUs, float64(t1.Sub(t0))/1e3)
			e.r.check(ok, "direct KV batch of %d: status %v or wrong reply", batch, st)
		}
		e.r.set(fmt.Sprintf("vm.kv_batch%d_us", batch), median(us), reps)
	}
	e.r.set("vm.reset_us", median(resetUs), len(resetUs))
	return nil
}

// ringEmits is the length of the Ring.Emit probe.
const ringEmits = 1 << 20

func ringEmitNs() float64 {
	ring := obs.NewRing(8192)
	ev := obs.Event{Kind: obs.KindDispatch, Domain: obs.DomainWall, LabelID: ring.Intern("bench")}
	t0 := time.Now()
	for i := uint64(0); i < ringEmits; i++ {
		ev.A = i
		ring.Emit(ev)
	}
	return float64(time.Since(t0)) / ringEmits
}
