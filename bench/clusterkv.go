package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

const (
	clusterNodes = 3
	// backendConns is each RemoteBackend's connection pool size.
	backendConns = 4
)

// clusterSpec selects one of the cluster shapes the benchmark builds.
type clusterSpec struct {
	nodes int
	// local puts the nodes behind LocalBackends (no router-to-node
	// transport) instead of loopback listeners.
	local bool
	// faults turns node-side verification off and SEU injection on, so
	// the reply vote is what stands between a flip and the client.
	faults bool
	// wrap, if set, decorates every backend.
	wrap func(cluster.Backend) cluster.Backend
}

// clustered is a cluster under test: its nodes, the router behind
// Cluster.ServeListener on loopback, and nproc client connections.
type clustered struct {
	nodes   []*node // remote shapes only
	servers []*serve.Server
	c       *cluster.Cluster
	done    chan error
	conns   []*serve.Conn
	// clusterNew is how long cluster.New took.
	clusterNew time.Duration
}

func buildCluster(e *env, spec clusterSpec) (cl *clustered, err error) {
	cl = &clustered{}
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	var backends []cluster.Backend
	for i := 0; i < spec.nodes; i++ {
		cfg := nodeConfig(e.nproc, e.seed+int64(i)*7919)
		if spec.faults {
			cfg.Verify = false
			cfg.SEURate = faultSEURate
		}
		id := fmt.Sprintf("node-%d", i)
		var be cluster.Backend
		if spec.local {
			lb, err := cluster.NewLocalBackend(id, cfg)
			if err != nil {
				return cl, err
			}
			cl.servers = append(cl.servers, lb.Server())
			be = lb
		} else {
			n, err := startNode(cfg)
			if err != nil {
				return cl, err
			}
			cl.nodes = append(cl.nodes, n)
			cl.servers = append(cl.servers, n.srv)
			be = cluster.NewRemoteBackend(id, n.addr, backendConns)
		}
		if spec.wrap != nil {
			be = spec.wrap(be)
		}
		backends = append(backends, be)
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = e.seed
	t0 := time.Now()
	if cl.c, err = cluster.New(backends, ccfg); err != nil {
		for _, be := range backends {
			be.Close()
		}
		return cl, err
	}
	cl.clusterNew = time.Since(t0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cl, err
	}
	cl.done = make(chan error, 1)
	go func() { cl.done <- cl.c.ServeListener(l) }()
	cl.conns, err = dialAll(l.Addr().String(), e.nproc)
	return cl, err
}

// close stops clients, router (which closes its backends) and nodes, in
// that order, and waits for the accept loops.
func (cl *clustered) close() {
	closeAll(cl.conns)
	if cl.c != nil {
		cl.c.Close()
	}
	if cl.done != nil {
		<-cl.done
	}
	for _, n := range cl.nodes {
		n.stop()
	}
}

func (cl *clustered) load(e *env) kvLoad {
	srv := cl.servers[0]
	return kvLoad{records: srv.Records(), valueWork: srv.ValueWork(), seed: e.seed}
}

// gates converges the replicas and checks the cluster invariants; with
// fault injection off a retry is a failure too.
func (cl *clustered) gates(r *results, faultFree bool) cluster.Snapshot {
	cl.c.SyncReplicas()
	inv := cl.c.CheckInvariants()
	m := cl.c.Metrics()
	r.check(inv.DeliveredCorruptions == 0, "cluster: %d corruptions delivered", inv.DeliveredCorruptions)
	r.check(inv.LostAckedWrites == 0, "cluster: %d acknowledged writes lost", inv.LostAckedWrites)
	r.check(inv.UnappliedPairs == 0, "cluster: %d log entries unapplied after SyncReplicas", inv.UnappliedPairs)
	if faultFree {
		r.check(m.Retries == 0 && m.NoQuorum == 0 && m.Failed == 0,
			"cluster: %d retries, %d quorum misses, %d failed with fault injection off", m.Retries, m.NoQuorum, m.Failed)
	}
	return m
}

func clusterEndToEnd(e *env) error {
	cl, err := setupMedian(e,
		func() (*clustered, error) { return buildCluster(e, clusterSpec{nodes: clusterNodes}) },
		(*clustered).close)
	if err != nil {
		return err
	}
	defer cl.close()
	warm, dur := windowOf(e.seconds, 1)
	win := cl.load(e).run(e.r, connClients(cl.conns), warm, dur)
	win.endToEnd(e.r)
	cl.gates(e.r, true)
	e.r.note("YCSB-A point ops over %d loopback connections to the router; %d nodes, R=%d, quorum %d, %d shards, no chaos; "+
		"%v warm-up, %d slices of %v", len(cl.conns), clusterNodes, cl.c.Replicas(), cl.c.Quorum(),
		cl.c.Ring().NumShards(), warm, nSlices, win.sliceLen)
	return nil
}

// timedBackend records one span per replica call of a traced request:
// the caller registers the request's root span under its TraceID, which
// the router hands to every replica unchanged.
type timedBackend struct {
	cluster.Backend
	t *fanoutTrace
}

// fanoutTrace is shared by the decorators of one cluster.
type fanoutTrace struct {
	tr      *tracer
	on      atomic.Bool
	parents sync.Map // TraceID -> root span id
}

func (b timedBackend) Do(req serve.Request) (uint64, error) {
	if b.t.on.Load() {
		if parent, ok := b.t.parents.Load(req.TraceID); ok {
			_, end := b.t.tr.begin("backend.do", parent.(uint64), req.TraceID)
			defer end()
		}
	}
	return b.Backend.Do(req)
}

// routerClients are in-process callers of Cluster.Do. With a
// fanoutTrace each request is a root span with a fresh TraceID.
func routerClients(c *cluster.Cluster, n int, ft *fanoutTrace) []kvClient {
	cs := make([]kvClient, n)
	var tid atomic.Uint64
	for i := range cs {
		cs[i].do = func(req serve.Request) (uint64, error) {
			if ft == nil {
				return c.Do(req)
			}
			req.TraceID = tid.Add(1)
			name := "cluster.do.read"
			if req.Write {
				name = "cluster.do.write"
			}
			id, end := ft.tr.begin(name, 0, req.TraceID)
			ft.parents.Store(req.TraceID, id)
			v, err := c.Do(req)
			end()
			ft.parents.Delete(req.TraceID)
			return v, err
		}
	}
	return cs
}

// fanoutStats derives the per-request replica timings from the spans.
type fanoutStats struct {
	backendUs, slowestUs, readSpreadUs, routerSelfUs []float64
}

func fanout(spans []span) fanoutStats {
	type kids struct{ lo, hi int64 }
	byParent := map[uint64]*kids{}
	var st fanoutStats
	for _, s := range spans {
		if s.Name != "backend.do" {
			continue
		}
		st.backendUs = append(st.backendUs, float64(s.dur())/1e3)
		k := byParent[s.Parent]
		if k == nil {
			byParent[s.Parent] = &kids{s.dur(), s.dur()}
			continue
		}
		k.lo, k.hi = min(k.lo, s.dur()), max(k.hi, s.dur())
	}
	self := selfTimes(spans)
	for _, s := range spans {
		k := byParent[s.ID]
		if k == nil || !strings.HasPrefix(s.Name, "cluster.do.") {
			continue
		}
		st.slowestUs = append(st.slowestUs, float64(k.hi)/1e3)
		st.routerSelfUs = append(st.routerSelfUs, float64(self[s.ID])/1e3)
		if s.Name == "cluster.do.read" {
			st.readSpreadUs = append(st.readSpreadUs, float64(k.hi-k.lo)/1e3)
		}
	}
	return st
}

// pointP50 builds the cluster shape, runs a short point-op window
// through the given callers and returns the median latency.
func pointP50(e *env, spec clusterSpec, share float64, clients func(*clustered) []kvClient) (float64, int, error) {
	cl, err := buildCluster(e, spec)
	if err != nil {
		return 0, 0, err
	}
	defer cl.close()
	warm, dur := windowOf(e.seconds, share)
	win := cl.load(e).run(e.r, clients(cl), warm, dur)
	cl.gates(e.r, true)
	return win.p50(opRead, opWrite), win.count(opRead, opWrite), nil
}

func clusterLayers(e *env) error {
	r := e.r
	ft := &fanoutTrace{tr: newTracer()}
	spec := clusterSpec{nodes: clusterNodes, wrap: func(be cluster.Backend) cluster.Backend { return timedBackend{be, ft} }}
	var newMs []float64
	cl, err := setupMedian(e, func() (*clustered, error) {
		cl, err := buildCluster(e, spec)
		if err == nil {
			newMs = append(newMs, float64(cl.clusterNew)/1e6)
		}
		return cl, err
	}, (*clustered).close)
	if err != nil {
		return err
	}
	defer cl.close()
	r.set("cluster.new_ms", median(newMs), len(newMs))
	load := cl.load(e)

	// Untraced, over TCP: the vote path and the log-and-ack path.
	warm, dur := windowOf(e.seconds, 0.4)
	tcp := load.run(r, connClients(cl.conns), warm, dur)
	m := cl.gates(r, true)
	points := tcp.count(opRead, opWrite)
	r.set("cluster.read_p50_us", tcp.p50(opRead), tcp.count(opRead))
	r.set("cluster.write_p50_us", tcp.p50(opWrite), tcp.count(opWrite))
	reportTail(r, "cluster.rtt_p99_us", tcp, 0.99)
	reportTail(r, "cluster.rtt_p999_us", tcp, 0.999)
	p50s := perSlice(tcp.kinds(opRead, opWrite), p(0.5))
	r.set("cluster.drift_x", p50s[len(p50s)-1]/p50s[0], points)
	r.set("cluster.vote_replies_per_req", float64(m.Votes)/float64(m.Responses), int(m.Responses))
	r.set("cluster.retries", float64(m.Retries), 1)
	r.set("cluster.no_quorum", float64(m.NoQuorum), 1)
	var wait, exec float64
	for _, srv := range cl.servers {
		sm := srv.Metrics()
		wait += sm.QueueWaitP50 * 1e6 / float64(len(cl.servers))
		exec += sm.ExecP50 * 1e6 / float64(len(cl.servers))
	}
	r.set("cluster.node_queue_wait_p50_us", wait, len(cl.servers))
	r.set("cluster.node_exec_p50_us", exec, len(cl.servers))
	r.set("proc.allocs_per_op", tcp.cost.allocsPerOp, tcp.ops)

	// In process: Cluster.Do without the router protocol, untraced then
	// traced through the backend decorators.
	warm, dur = windowOf(e.seconds, 0.125)
	plain := load.run(r, routerClients(cl.c, e.nproc, nil), warm, dur)
	r.set("cluster.do_read_p50_us", plain.p50(opRead), plain.count(opRead))
	r.set("cluster.do_write_p50_us", plain.p50(opWrite), plain.count(opWrite))
	r.set("cluster.proto_p50_us", tcp.p50(opRead, opWrite)-plain.p50(opRead, opWrite), points)
	ft.on.Store(true)
	traced := load.run(r, routerClients(cl.c, e.nproc, ft), warm, dur)
	ft.on.Store(false)
	r.set("obs.trace_overhead_share", 1-traced.opsPerSec()/plain.opsPerSec(), traced.ops)
	spans := ft.tr.snapshot()
	r.Layers = summarize(spans)
	fs := fanout(spans)
	r.set("cluster.backend_do_p50_us", median(fs.backendUs), len(fs.backendUs))
	r.set("cluster.slowest_replica_p50_us", median(fs.slowestUs), len(fs.slowestUs))
	r.set("cluster.fanout_spread_p50_us", median(fs.readSpreadUs), len(fs.readSpreadUs))
	r.set("cluster.router_self_p50_us", median(fs.routerSelfUs), len(fs.routerSelfUs))
	cl.gates(r, true)
	if err := writeTrace(filepath.Join(outDir, "trace-"+wCluster+".json"), wCluster, spans); err != nil {
		return err
	}
	r.note("the protocol cost is the difference of medians: untraced TCP round trip minus in-process Cluster.Do; " +
		"the span tree is driven in process because the router's own Do cannot be wrapped from outside")

	// The same cluster with the transport removed, and the router hop
	// alone (one node, so R=1: no replication).
	v, n, err := pointP50(e, clusterSpec{nodes: clusterNodes, local: true}, 0.1,
		func(cl *clustered) []kvClient { return routerClients(cl.c, e.nproc, nil) })
	if err != nil {
		return err
	}
	r.set("cluster.local_do_p50_us", v, n)
	v, n, err = pointP50(e, clusterSpec{nodes: 1}, 0.1,
		func(cl *clustered) []kvClient { return connClients(cl.conns) })
	if err != nil {
		return err
	}
	r.set("cluster.n1r1_rtt_p50_us", v, n)

	// Untimed pass with faults on and node verification off.
	f, err := buildCluster(e, clusterSpec{nodes: clusterNodes, faults: true})
	if err != nil {
		return err
	}
	defer f.close()
	warm, dur = windowOf(e.seconds, 0.15)
	load.run(r, connClients(f.conns), 0, warm+dur)
	fm := f.gates(r, false)
	injected := 0
	for _, srv := range f.servers {
		injected += int(srv.Metrics().InjectedFaults)
	}
	r.set("cluster.fault_detected", float64(fm.DetectedCorruptions), injected)
	r.set("cluster.fault_delivered", float64(fm.DeliveredCorruptions), injected)
	return nil
}
