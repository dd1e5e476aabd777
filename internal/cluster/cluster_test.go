package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workloads"
)

// nodeConfig is a small, fast serve config for in-process test nodes.
func nodeConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Pool = 2
	cfg.Batch = 8
	cfg.QueueDepth = 256
	cfg.KV.Records = 128
	return cfg
}

func localBackends(t *testing.T, n int, cfg serve.Config) []Backend {
	t.Helper()
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		b, err := NewLocalBackend(fmt.Sprintf("node-%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
	}
	return backends
}

func reference(write bool, key, value uint64, valueWork int) uint64 {
	return workloads.KVReference(workloads.KVRequestWord(write, key, value), valueWork)
}

// TestClusterCorrectness: every request through the voting router gets
// the exact reference reply, writes are acknowledged at quorum, and
// both cluster invariants hold on a fault-free run.
func TestClusterCorrectness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 16
	c, err := New(localBackends(t, 3, nodeConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Quorum() != 2 || c.Replicas() != 3 {
		t.Fatalf("R=%d quorum=%d, want 3/2", c.Replicas(), c.Quorum())
	}

	const n = 150
	vw := nodeConfig().KV.ValueWork
	var wg sync.WaitGroup
	var bad atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			write := i%3 == 0
			key, val := uint64(i%128), uint64(0)
			if write {
				val = uint64(i * 31)
			}
			var v uint64
			var err error
			if write {
				v, err = c.Put(key, val)
			} else {
				v, err = c.Get(key)
			}
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			if v != reference(write, key, val, vw) {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d replies differ from reference", bad.Load())
	}

	snap := c.Metrics()
	if snap.Responses != n || snap.Failed != 0 {
		t.Fatalf("accounting: %d responses / %d failed, want %d/0", snap.Responses, snap.Failed, n)
	}
	if snap.Votes == 0 {
		t.Fatalf("voter collected no replies")
	}
	if snap.AckedWrites != snap.Writes {
		t.Fatalf("%d writes but %d acked", snap.Writes, snap.AckedWrites)
	}
	if snap.DetectedCorruptions != 0 || snap.DeliveredCorruptions != 0 {
		t.Fatalf("fault-free run reported corruptions: %+v", snap)
	}
	rep := c.CheckInvariants()
	if rep.LostAckedWrites != 0 || rep.DeliveredCorruptions != 0 {
		t.Fatalf("invariants violated on a clean run: %+v", rep)
	}
}

// corruptBackend wraps a healthy backend and flips a bit in every read
// reply — a node that silently emits corrupted responses. The voter
// must mask every one of them, never deliver one, and eventually
// quarantine the node on suspicion. Writes pass through untouched so
// log replay still converges. It is a Splitter, as both shipped
// backends are, so the router calls it in two halves; doOnly hides
// that to exercise the Do-only adapter.
type corruptBackend struct {
	Splitter
	flipped atomic.Uint64
}

// corruptCall is a call in flight through corruptBackend: Recv must
// know whether it is a read.
type corruptCall struct {
	inner any
	write bool
}

func (b *corruptBackend) flip(write bool, v uint64, err error) (uint64, error) {
	if err == nil && !write {
		b.flipped.Add(1)
		v ^= 1 << 17
	}
	return v, err
}

func (b *corruptBackend) Do(req serve.Request) (uint64, error) {
	v, err := b.Splitter.Do(req)
	return b.flip(req.Write, v, err)
}

func (b *corruptBackend) Send(req serve.Request, at time.Time) (any, bool, error) {
	call, wait, err := b.Splitter.Send(req, at)
	if err != nil {
		return nil, false, err
	}
	return &corruptCall{inner: call, write: req.Write}, wait, nil
}

func (b *corruptBackend) Recv(call any, at time.Time) (uint64, error) {
	cc := call.(*corruptCall)
	v, err := b.Splitter.Recv(cc.inner, at)
	return b.flip(cc.write, v, err)
}

// doOnly is a Backend that offers only Do: the public contract, which
// the router serves through its goroutine-per-call adapter.
type doOnly struct{ Backend }

// TestClusterVoterMasksCorruptReplica is the replica-disagreement
// accounting test: with one of three replicas returning corrupted read
// replies, the voter masks the bad reply on every read, counts each
// mask as a detected corruption attributed to the bad node, records a
// vote-mask flight bundle, delivers only majority-agreed (correct)
// values, and quarantines the node once suspicion accumulates — on the
// two-phase path and on the Do-only adapter alike.
func TestClusterVoterMasksCorruptReplica(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*corruptBackend) Backend
	}{
		{"two-phase", func(b *corruptBackend) Backend { return b }},
		{"do-only", func(b *corruptBackend) Backend { return doOnly{b} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backends := localBackends(t, 3, nodeConfig())
			bad := &corruptBackend{Splitter: backends[1].(Splitter)}
			backends[1] = tc.wrap(bad)
			_, split := backends[1].(Splitter)
			if want := tc.name == "two-phase"; split != want {
				t.Fatalf("corrupt replica is a Splitter: %v, want %v", split, want)
			}
			testVoterMasks(t, backends, bad)
		})
	}
}

func testVoterMasks(t *testing.T, backends []Backend, bad *corruptBackend) {
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.SuspicionThreshold = 3
	cfg.BreakerCooldown = 50 * time.Millisecond
	cfg.HealthInterval = 20 * time.Millisecond
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	vw := nodeConfig().KV.ValueWork
	const n = 60
	for i := 0; i < n; i++ {
		key := uint64(i % 128)
		v, err := c.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", key, err)
		}
		if v != reference(false, key, 0, vw) {
			t.Fatalf("corrupted reply DELIVERED for key %d: %#x", key, v)
		}
	}

	snap := c.Metrics()
	if bad.flipped.Load() == 0 {
		t.Fatalf("the corrupt replica never served a read — test exercised nothing")
	}
	if snap.DetectedCorruptions == 0 {
		t.Fatalf("voter masked nothing despite %d corrupted replies", bad.flipped.Load())
	}
	if snap.DeliveredCorruptions != 0 {
		t.Fatalf("delivered corruptions = %d, invariant is zero", snap.DeliveredCorruptions)
	}
	if snap.NodeMasked["node-1"] == 0 {
		t.Fatalf("masked replies not attributed to the corrupt node: %+v", snap.NodeMasked)
	}
	if snap.NodeMasked["node-0"] != 0 || snap.NodeMasked["node-2"] != 0 {
		t.Fatalf("healthy nodes were masked: %+v", snap.NodeMasked)
	}
	if snap.Quarantines == 0 {
		t.Fatalf("suspicion threshold %d never quarantined the corrupt node (%d masks)",
			cfg.SuspicionThreshold, snap.DetectedCorruptions)
	}
	masks := 0
	for _, b := range c.Flight().Bundles() {
		if b.Kind == "vote-mask" && b.Masked != b.Majority {
			masks++
		}
	}
	if masks == 0 {
		t.Fatalf("no vote-mask flight bundle for %d masked replies", snap.DetectedCorruptions)
	}
	t.Logf("flipped=%d masked=%d quarantines=%d rebuilds=%d",
		bad.flipped.Load(), snap.DetectedCorruptions, snap.Quarantines, snap.Rebuilds)
}

// TestClusterFailoverReplay: killing a node mid-stream fails shards
// over to surviving replicas with no acked-write loss; after a manual
// restart the write log is replayed into the fresh (empty) node and it
// returns to full health.
func TestClusterFailoverReplay(t *testing.T) {
	backends := localBackends(t, 3, nodeConfig())
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.HealthInterval = 20 * time.Millisecond
	cfg.BreakerCooldown = 50 * time.Millisecond
	cfg.BreakerThreshold = 2
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	vw := nodeConfig().KV.ValueWork
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			key, val := uint64(i%128), uint64(i*7)
			v, err := c.Put(key, val)
			if err != nil {
				t.Fatalf("put %d: %v", key, err)
			}
			if v != reference(true, key, val, vw) {
				t.Fatalf("wrong put reply for key %d", key)
			}
		}
	}

	put(0, 40)

	// Kill node 0 out from under the router: its calls and health
	// probes start failing, the breaker opens, and shards whose home
	// primary it was fail over.
	backends[0].(*LocalBackend).Kill()
	put(40, 80) // quorum 2-of-3 keeps acking with the node down

	waitState(t, c, "node-0", "quarantined", 5*time.Second)

	// Bring a fresh, EMPTY node back: readmission must replay the
	// retained write log into it before it serves reads again.
	if err := backends[0].(*LocalBackend).Restart(); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, "node-0", "healthy", 5*time.Second)

	snap := c.Metrics()
	if snap.Failovers == 0 {
		t.Fatalf("no failovers counted after killing a primary")
	}
	if snap.ReplayedWrites == 0 {
		t.Fatalf("no writes replayed into the rebuilt node")
	}
	rep := c.CheckInvariants()
	if rep.LostAckedWrites != 0 {
		t.Fatalf("%d acked writes lost across the failover", rep.LostAckedWrites)
	}
	if rep.DeliveredCorruptions != 0 {
		t.Fatalf("delivered corruptions: %d", rep.DeliveredCorruptions)
	}

	// Reads after recovery are still majority-verified and correct.
	for i := 0; i < 20; i++ {
		key := uint64(i)
		v, err := c.Get(key)
		if err != nil {
			t.Fatalf("post-recovery get %d: %v", key, err)
		}
		if v != reference(false, key, 0, vw) {
			t.Fatalf("post-recovery wrong reply for key %d", key)
		}
	}
	t.Logf("failovers=%d replayed=%d quarantines=%d rebuilds=%d",
		snap.Failovers, snap.ReplayedWrites, snap.Quarantines, snap.Rebuilds)
}

// waitState polls until the named node reaches the wanted state.
func waitState(t *testing.T, c *Cluster, nodeID, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Metrics().NodeStates[nodeID] == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %s never reached state %q (now %q)",
		nodeID, want, c.Metrics().NodeStates[nodeID])
}

// TestClusterTCP: the router serves the serve-compatible text protocol
// — an unmodified serve client gets voted, replicated service, and
// "stats" answers with the cluster snapshot.
func TestClusterTCP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 16
	c, err := New(localBackends(t, 3, nodeConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeListener(l)

	cl, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	vw := nodeConfig().KV.ValueWork
	if err := cl.Ping(time.Time{}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	pv, err := cl.Put(3, 99)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if want := reference(true, 3, 99, vw); pv != want {
		t.Fatalf("put reply %#x, want %#x", pv, want)
	}
	gv, err := cl.Get(3)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if want := reference(false, 3, 0, vw); gv != want {
		t.Fatalf("get reply %#x, want %#x", gv, want)
	}
	vs, err := cl.Scan(10, 4)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(vs) != 4 {
		t.Fatalf("scan returned %d values, want 4", len(vs))
	}
	raw, err := cl.StatsRaw()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats payload is not a cluster snapshot: %v", err)
	}
	if snap.Nodes != 3 || snap.Replicas != 3 || snap.Responses < 6 {
		t.Fatalf("cluster snapshot looks wrong: %+v", snap)
	}
}

// deafBackend answers reads below failFrom from a pure function and
// fails every other read, so a scan crossing failFrom fails mid-range.
type deafBackend struct {
	id       string
	failFrom uint64
}

func (b *deafBackend) ID() string           { return b.id }
func (b *deafBackend) Ping(time.Time) error { return nil }
func (b *deafBackend) Close()               {}
func (b *deafBackend) Do(req serve.Request) (uint64, error) {
	if req.Key >= b.failFrom {
		return 0, fmt.Errorf("key %d unreachable", req.Key)
	}
	return req.Key + 1, nil
}

// TestClusterScanFailureIsOneReply: a router scan that fails on a later
// key answers one whole ERR line — the client sees the server's error,
// not a parse failure on a half-written RANGE line, and the connection
// stays usable.
func TestClusterScanFailureIsOneReply(t *testing.T) {
	backends := make([]Backend, 3)
	for i := range backends {
		backends[i] = &deafBackend{id: fmt.Sprintf("node-%d", i), failFrom: 12}
	}
	cfg := DefaultConfig()
	cfg.MaxRetries = 1
	cfg.RetryBackoff = time.Microsecond
	cfg.BreakerThreshold = 1 << 20 // failures stay per-key: no node is quarantined
	cfg.HealthInterval = time.Hour
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.ServeListener(l)
	cl, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if vs, err := cl.Scan(8, 4); err != nil || len(vs) != 4 || vs[3] != 12 {
		t.Fatalf("scan below the failing key: %v, %v", vs, err)
	}
	_, err = cl.Scan(10, 4)
	if err == nil || !strings.Contains(err.Error(), "server error") || !strings.Contains(err.Error(), ErrNoQuorum.Error()) {
		t.Fatalf("failing scan reported %v, want the server's no-quorum error", err)
	}
	if v, err := cl.Get(3); err != nil || v != 4 {
		t.Fatalf("connection unusable after a failed scan: %v, %v", v, err)
	}
}
