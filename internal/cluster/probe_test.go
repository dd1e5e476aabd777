package cluster

import (
	"bufio"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// stuckProxy stands in front of a real hardened node on loopback. It
// relays every command line and its reply until stuck is set; from then
// on it reads every command and answers none — a node that keeps its
// connections open and stops answering.
type stuckProxy struct {
	l       net.Listener
	node    string // the real node's address
	stuck   atomic.Bool
	dropped atomic.Int64 // commands read while stuck

	mu    sync.Mutex
	conns []net.Conn
}

func startStuckProxy(t *testing.T) *stuckProxy {
	t.Helper()
	srv, err := serve.NewServer(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeListener(nl)
	t.Cleanup(srv.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stuckProxy{l: l, node: nl.Addr().String()}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", p.node)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, up)
			p.mu.Unlock()
			go p.relay(c, up)
		}
	}()
	return p
}

func (p *stuckProxy) relay(c, up net.Conn) {
	r, ur := bufio.NewReader(c), bufio.NewReader(up)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		if p.stuck.Load() {
			p.dropped.Add(1)
			continue
		}
		if _, err := up.Write([]byte(line)); err != nil {
			return
		}
		reply, err := ur.ReadString('\n')
		if err != nil {
			return
		}
		if _, err := c.Write([]byte(reply)); err != nil {
			return
		}
	}
}

// close stops the listener and every connection, which ends any read
// still waiting on the proxy.
func (p *stuckProxy) close() {
	p.l.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
}

// pingCounter counts a backend's liveness probes.
type pingCounter struct {
	Splitter
	pings atomic.Int64
}

func (b *pingCounter) Ping(at time.Time) error {
	b.pings.Add(1)
	return b.Splitter.Ping(at)
}

// stuckCluster builds a cluster over three remote nodes whose node 0,
// behind a stuckProxy, first in the replica order of key's shard,
// applied an acked write to that shard and then stopped answering.
// node 2 counts its probes.
func stuckCluster(t *testing.T, cfg Config) (c *Cluster, p *stuckProxy, key uint64, counted *pingCounter) {
	t.Helper()
	p = startStuckProxy(t)
	counted = &pingCounter{Splitter: remoteNode(t, "node-2", 2)}
	c, err := New([]Backend{
		NewRemoteBackend("stuck", p.l.Addr().String(), 2),
		remoteNode(t, "node-1", 2),
		counted,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: the proxy closes first, which
	// frees anything still waiting on it, so Close can return even when
	// a test fails because something waited on the stuck node unbounded.
	t.Cleanup(c.Close)
	t.Cleanup(p.close)
	for c.shards[c.ring.ShardOf(key)].replicas[0] != 0 {
		key++
	}
	vw := nodeConfig().KV.ValueWork
	if v, err := c.Put(key, 1); err != nil || v != reference(true, key, 1, vw) {
		t.Fatalf("put %d: %#x, %v", key, v, err)
	}
	lg := c.shards[c.ring.ShardOf(key)]
	lg.mu.Lock()
	e := *lg.entries[len(lg.entries)-1]
	lg.mu.Unlock()
	if !e.acked || !e.applied[0] {
		t.Fatalf("the write was not acked and applied on the stuck node: %+v", e)
	}
	p.stuck.Store(true)
	return c, p, key, counted
}

// within fails t unless f returns within bound. f keeps running when it
// does not; the stuck proxy's cleanup ends its wait.
func within(t *testing.T, what string, bound time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("%s did not return within %v with a stuck replica", what, bound)
	}
}

// TestStuckReplicaMetricsScrape: a /metrics scrape, which runs the
// audit first, returns within one call timeout (plus slack) while a
// node that applied an acked write has stopped answering.
func TestStuckReplicaMetricsScrape(t *testing.T) {
	t.Parallel()
	c, _, _, _ := stuckCluster(t, stuckClusterConfig())
	h := c.DebugHandler()
	rec := httptest.NewRecorder()
	within(t, "a /metrics scrape", callTimeout+slack, func() {
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	})
	if body := rec.Body.String(); rec.Code != 200 || !strings.Contains(body, "haft_cluster_lost_acked_writes_total 0") {
		t.Fatalf("scrape answered %d:\n%s", rec.Code, body)
	}
}

// TestStuckReplicaAuditKeepsWritesAcked: while an audit waits on the
// stuck node, writes to a shard it applied are still acked, each within
// one call timeout plus slack. A write must start before the audit
// ends; a round where none did, on a box that paused the test for the
// whole audit, is run again.
func TestStuckReplicaAuditKeepsWritesAcked(t *testing.T) {
	t.Parallel()
	c, _, key, _ := stuckCluster(t, stuckClusterConfig())
	vw := nodeConfig().KV.ValueWork
	val := uint64(1)
	for round := 0; round < 10; round++ {
		var rep InvariantReport
		audited := make(chan time.Time, 1)
		go func() {
			rep = c.CheckInvariants()
			audited <- time.Now()
		}()
		first := time.Now()
		for {
			val++
			var v uint64
			var err error
			within(t, "a write during an audit", callTimeout+slack, func() { v, err = c.Put(key, val) })
			if err != nil || v != reference(true, key, val, vw) {
				t.Fatalf("put %d = %#x, %v during an audit", key, v, err)
			}
			select {
			case end := <-audited:
				if rep.LostAckedWrites != 0 {
					t.Fatalf("audit: %+v", rep)
				}
				if first.Before(end) {
					return
				}
			default:
				continue
			}
			break
		}
	}
	t.Fatal("no write started during any of 10 audits")
}

// TestStuckReplicaHealthLoop: with a short HealthInterval, the health
// loop probes the stuck node within its bound and goes on to probe the
// other nodes and to readmit a quarantined one.
func TestStuckReplicaHealthLoop(t *testing.T) {
	t.Parallel()
	cfg := stuckClusterConfig()
	cfg.HealthInterval = 10 * time.Millisecond
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 20 * time.Millisecond
	c, _, _, counted := stuckCluster(t, cfg)
	c.quarantineNode(c.nodes[1], false, "test")
	probes := counted.pings.Load()
	waitState(t, c, "node-1", "healthy", 2*time.Second)
	waitState(t, c, "stuck", "quarantined", 2*time.Second)
	for deadline := time.Now().Add(2 * time.Second); counted.pings.Load()-probes < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node-2 was probed %d times beside the stuck node, want 3 or more", counted.pings.Load()-probes)
		}
	}
}

// TestStuckReplicaReadmit: a readmission of the stuck node gives up
// within the probe's bound and leaves the node quarantined.
func TestStuckReplicaReadmit(t *testing.T) {
	t.Parallel()
	c, _, _, _ := stuckCluster(t, stuckClusterConfig())
	n := c.nodes[0]
	c.quarantineNode(n, false, "test")
	within(t, "a readmission", callTimeout+slack, func() { c.readmit(n) })
	if s := n.getState(); s != nodeQuarantined {
		t.Fatalf("the stuck node is %v after its readmission failed, want quarantined", s)
	}
}

// TestStuckReplicaClose: Close returns while the health loop probes a
// stuck node.
func TestStuckReplicaClose(t *testing.T) {
	t.Parallel()
	cfg := stuckClusterConfig()
	cfg.HealthInterval = 10 * time.Millisecond
	c, p, _, _ := stuckCluster(t, cfg)
	for p.dropped.Load() == 0 { // until a probe of the stuck node is under way
		time.Sleep(time.Millisecond)
	}
	within(t, "Close", callTimeout+slack, c.Close)
}

// TestAuditPingsEachNodeOnce: one audit asks every node that is not
// dead for one liveness answer, however many acked writes the logs
// hold, and never asks a dead one.
func TestAuditPingsEachNodeOnce(t *testing.T) {
	backends := localBackends(t, 3, nodeConfig())
	counters := make([]*pingCounter, len(backends))
	for i, b := range backends {
		counters[i] = &pingCounter{Splitter: b.(Splitter)}
		backends[i] = counters[i]
	}
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.HealthInterval = time.Hour
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shards := map[int]bool{}
	for key := uint64(0); key < 64; key++ {
		if _, err := c.Put(key, key); err != nil {
			t.Fatal(err)
		}
		shards[c.ring.ShardOf(key)] = true
	}
	if len(shards) < 8 {
		t.Fatalf("64 writes landed in %d shards", len(shards))
	}
	dead := c.nodes[2]
	dead.mu.Lock()
	dead.state = nodeDead
	dead.mu.Unlock()
	for _, b := range counters {
		b.pings.Store(0)
	}
	if rep := c.CheckInvariants(); rep.LostAckedWrites != 0 {
		t.Fatalf("audit: %+v", rep)
	}
	for i, b := range counters {
		want := int64(1)
		if i == 2 {
			want = 0
		}
		if got := b.pings.Load(); got != want {
			t.Errorf("node-%d was pinged %d times by one audit, want %d", i, got, want)
		}
	}
}

// failingWrite is a Do-only backend that fails the write of one key
// while failing is set.
type failingWrite struct {
	Backend
	key     uint64
	failing atomic.Bool
}

func (b *failingWrite) Do(req serve.Request) (uint64, error) {
	if req.Write && req.Key == b.key && b.failing.Load() {
		return 0, ErrNodeDown
	}
	return b.Backend.Do(req)
}

// TestReplayStopsAtFirstFailure: the replay into a readmitted node
// stops at the first write the node fails, so no later write of the
// log overtakes it; all of them stay pending for the next replay, and
// the node, which lacks them, is quarantined again instead of healthy.
func TestReplayStopsAtFirstFailure(t *testing.T) {
	backends := localBackends(t, 3, nodeConfig())
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.HealthInterval = time.Hour
	flaky := &failingWrite{Backend: backends[0]}
	backends[0] = flaky
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shard := c.ring.ShardOf(0)
	var keys []uint64
	for key := uint64(0); len(keys) < 4; key++ {
		if c.ring.ShardOf(key) == shard {
			keys = append(keys, key)
		}
	}
	flaky.key = keys[1]
	for _, key := range keys {
		if _, err := c.Put(key, key); err != nil {
			t.Fatal(err)
		}
	}
	flaky.failing.Store(true)
	n := c.nodes[0]
	c.quarantineNode(n, false, "test")
	c.readmit(n)
	if got := c.Metrics().ReplayedWrites; got != 1 {
		t.Fatalf("%d writes replayed, want 1: the one before the failed write", got)
	}
	var pending []uint64
	for _, e := range c.shards[shard].pendingFor(0) {
		pending = append(pending, e.req.Key)
	}
	if fmt.Sprint(pending) != fmt.Sprint(keys[1:]) {
		t.Fatalf("writes of keys %v pending for the node, want %v", pending, keys[1:])
	}
	if st := n.getState(); st != nodeQuarantined {
		t.Fatalf("node %v after a replay that left writes pending, want %v", st, nodeQuarantined)
	}
}
