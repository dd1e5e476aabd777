package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// callTimeout is the fan-out deadline of the stuck-replica tests, and
// slack what a request may take beyond it on a loaded box.
const (
	callTimeout = 40 * time.Millisecond
	slack       = 300 * time.Millisecond
)

// rawNode is a text-protocol node on a real socket that answers
// "get <k>" with VALUE 3k after delay — or, while delay is negative,
// reads every command and answers none.
type rawNode struct {
	l     net.Listener
	delay atomic.Int64 // nanoseconds
	dials atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func startRawNode(t *testing.T, delay time.Duration) *rawNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &rawNode{l: l}
	n.delay.Store(int64(delay))
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			n.dials.Add(1)
			n.mu.Lock()
			n.conns = append(n.conns, c)
			n.mu.Unlock()
			go n.serve(c)
		}
	}()
	return n
}

func (n *rawNode) serve(c net.Conn) {
	sc := bufio.NewScanner(c)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		d := time.Duration(n.delay.Load())
		if len(f) < 2 || f[0] != "get" || d < 0 {
			continue
		}
		k, _ := strconv.ParseUint(f[1], 0, 64)
		time.Sleep(d)
		fmt.Fprintf(c, "VALUE %#x\n", 3*k)
	}
}

// close stops the listener and every connection, which ends any read
// still waiting on the node.
func (n *rawNode) close() {
	n.l.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		c.Close()
	}
}

// remoteNode serves a real hardened node on loopback and returns a
// RemoteBackend to it with maxConns pooled connections.
func remoteNode(t *testing.T, id string, maxConns int) *RemoteBackend {
	t.Helper()
	srv, err := serve.NewServer(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeListener(l)
	t.Cleanup(srv.Close)
	return NewRemoteBackend(id, l.Addr().String(), maxConns)
}

// stuckClusterConfig keeps a failing replica in rotation (no breaker
// trips, no health probes), so every request meets it.
func stuckClusterConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.CallTimeout = callTimeout
	cfg.BreakerThreshold = 1 << 20
	cfg.HealthInterval = time.Hour
	return cfg
}

// readThroughStuck reads through c one key for each place node 0, the
// stuck replica, takes among the replicas of some shard. First place
// must be among them: there its wait for the deadline comes before the
// other replies are read. Each read must come back correct within the
// call timeout plus slack, voted by the two healthy replicas, with the
// stuck one counted as failed and the healthy ones never.
func readThroughStuck(t *testing.T, c *Cluster) {
	t.Helper()
	stuck := c.Node(0).ID()
	var keys []uint64
	for place := 0; place < c.Replicas(); place++ {
		for key := uint64(0); key < 1024; key++ {
			if c.shards[c.ring.ShardOf(key)].replicas[place] == 0 {
				keys = append(keys, key)
				break
			}
		}
		if len(keys) == 0 {
			t.Fatal("node 0 comes first in no shard's replica set")
		}
	}
	reads := len(keys)
	vw := nodeConfig().KV.ValueWork
	before := c.Metrics()
	for _, key := range keys {
		t0 := time.Now()
		v, err := c.Get(key)
		took := time.Since(t0)
		if err != nil {
			t.Fatalf("get %d: %v", key, err)
		}
		if want := reference(false, key, 0, vw); v != want {
			t.Fatalf("get %d = %#x, want %#x", key, v, want)
		}
		if took > callTimeout+slack {
			t.Fatalf("get %d took %v with a stuck replica; the bound is %v + %v", key, took, callTimeout, slack)
		}
	}
	after := c.Metrics()
	if got := after.NodeFails[stuck] - before.NodeFails[stuck]; got != uint64(reads) {
		t.Fatalf("stuck replica %s failed %d of %d calls", stuck, got, reads)
	}
	for i := 1; i < c.Replicas(); i++ {
		id := c.Node(i).ID()
		if got := after.NodeFails[id] - before.NodeFails[id]; got != 0 {
			t.Fatalf("healthy replica %s was charged %d failures beside a stuck one", id, got)
		}
	}
	if got := after.Votes - before.Votes; got != uint64(2*reads) {
		t.Fatalf("%d replies voted for %d reads, want 2 per read", got, reads)
	}
	if after.Retries != before.Retries || after.Failed != before.Failed {
		t.Fatalf("a stuck minority caused %d retries, %d failures",
			after.Retries-before.Retries, after.Failed-before.Failed)
	}
}

// TestFanoutStuckRemoteReplica: a node that accepts and reads commands
// but never answers costs each request one call timeout, not more, and
// the other two replicas still vote.
func TestFanoutStuckRemoteReplica(t *testing.T) {
	t.Parallel()
	stuck := startRawNode(t, -1)
	backends := []Backend{
		NewRemoteBackend("stuck", stuck.l.Addr().String(), 2),
		remoteNode(t, "node-1", 2),
		remoteNode(t, "node-2", 2),
	}
	c, err := New(backends, stuckClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer stuck.close()
	readThroughStuck(t, c)
}

// TestFanoutPoolExhausted: a RemoteBackend whose only connection is
// checked out bounds the wait for one by the call timeout; once the
// connection comes back it answers its own request and the next.
// The connection is dialed by a first call and checked out by a Send,
// which takes only an idle connection.
func TestFanoutPoolExhausted(t *testing.T) {
	t.Parallel()
	held := remoteNode(t, "held", 1)
	c, err := New([]Backend{held, remoteNode(t, "node-1", 2), remoteNode(t, "node-2", 2)}, stuckClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = 9
	if _, err := held.Do(serve.Request{Key: key}); err != nil {
		t.Fatal(err)
	}
	call, wait, err := held.Send(serve.Request{Key: key}, time.Time{})
	if err != nil || wait {
		t.Fatalf("Send on an idle connection: wait %v, %v", wait, err)
	}
	readThroughStuck(t, c)
	vw := nodeConfig().KV.ValueWork
	if v, err := held.Recv(call, time.Time{}); err != nil || v != reference(false, key, 0, vw) {
		t.Fatalf("held call answered %#x, %v; want its own reply", v, err)
	}
	before := c.Metrics().Votes
	if _, err := c.Get(key); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Votes - before; got != 3 {
		t.Fatalf("%d replies after the connection came back, want 3", got)
	}
}

// TestFanoutFullLocalQueue: admission to a LocalBackend whose queue is
// full gives up at the call timeout. The node's one worker runs slow
// requests (a large value work), so its one queue slot stays taken for
// longer than the whole test needs.
func TestFanoutFullLocalQueue(t *testing.T) {
	t.Parallel()
	slowCfg := nodeConfig()
	slowCfg.Pool, slowCfg.Batch, slowCfg.QueueDepth = 1, 1, 1
	slowCfg.KV.ValueWork = 200_000 // a run of about 0.15 s
	slow, err := NewLocalBackend("slow", slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	backends := localBackends(t, 3, nodeConfig())
	backends[0].Close()
	backends[0] = slow
	c, err := New(backends, stuckClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fill the node: submit until a request finds no room. An expired
	// deadline makes Wait give up at once, on the room or the reply.
	srv := slow.Server()
	for {
		tk, err := srv.Submit(serve.Request{Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(&serve.Deadline{}); errors.Is(err, serve.ErrOverloaded) {
			break
		}
	}
	rejected := srv.Metrics().Rejected
	readThroughStuck(t, c)
	if srv.Metrics().Rejected == rejected {
		t.Fatal("the read was not refused admission by the full queue")
	}
}

// TestFanoutOppositeOrders: concurrent fan-outs over two shards that
// list their replicas in opposite orders, through pools of one
// connection per node, never wait on each other in a cycle — no reader
// holds one node's connection while it waits for another's — so every
// read is answered by all three replicas and no call times out.
func TestFanoutOppositeOrders(t *testing.T) {
	t.Parallel()
	backends := []Backend{remoteNode(t, "node-0", 1), remoteNode(t, "node-1", 1), remoteNode(t, "node-2", 1)}
	cfg := DefaultConfig()
	cfg.Shards = 16
	cfg.HealthInterval = time.Hour
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys, ok := oppositeKeys(c)
	if !ok {
		t.Fatal("no two shards list their replicas in opposite orders")
	}
	const readers, reads = 4, 50
	vw := nodeConfig().KV.ValueWork
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func(key uint64) {
			for i := 0; i < reads; i++ {
				if v, err := c.Get(key); err != nil || v != reference(false, key, 0, vw) {
					errs <- fmt.Errorf("get %d = %#x, %v", key, v, err)
					return
				}
			}
			errs <- nil
		}(keys[g%2])
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m := c.Metrics()
	for id, n := range m.NodeFails {
		if n != 0 {
			t.Errorf("node %s failed %d calls", id, n)
		}
	}
	if want := uint64(3 * readers * reads); m.Votes != want || m.Retries != 0 {
		t.Errorf("%d replies voted, %d retries; want %d and none", m.Votes, m.Retries, want)
	}
}

// oppositeKeys finds two keys whose shards list the same replicas in
// reverse order of each other.
func oppositeKeys(c *Cluster) (keys [2]uint64, ok bool) {
	reversed := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[len(b)-1-i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	for a := uint64(0); a < 256; a++ {
		for b := a + 1; b < 256; b++ {
			if reversed(c.shards[c.ring.ShardOf(a)].replicas, c.shards[c.ring.ShardOf(b)].replicas) {
				return [2]uint64{a, b}, true
			}
		}
	}
	return keys, false
}

// TestRemoteBackendTimedOutCallReadsOwnReply: a connection whose call
// timed out is closed, never pooled with its reply still in flight, so
// the next call on the backend reads its own reply.
func TestRemoteBackendTimedOutCallReadsOwnReply(t *testing.T) {
	t.Parallel()
	n := startRawNode(t, 4*callTimeout)
	defer n.close()
	b := NewRemoteBackend("late", n.l.Addr().String(), 1)
	defer b.Close()

	at := time.Now().Add(callTimeout)
	t0 := time.Now()
	call, _, err := b.Send(serve.Request{Key: 5}, at)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := b.Recv(call, at); !errors.Is(err, errCallTimeout) {
		t.Fatalf("late reply: %#x, %v; want errCallTimeout", v, err)
	}
	if took := time.Since(t0); took > callTimeout+slack {
		t.Fatalf("timed-out call took %v", took)
	}

	n.delay.Store(0)
	if v, err := b.Do(serve.Request{Key: 7}); err != nil || v != 21 {
		t.Fatalf("next call answered %#x, %v; want its own reply 0x15", v, err)
	}
	if got := n.dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2: the timed-out connection must be replaced", got)
	}
}

// TestTally pins the vote rule: the value with the most supporters
// wins, the smallest value among a tie, failed calls do not vote, and
// every successful reply that disagrees with the winner is a loser.
func TestTally(t *testing.T) {
	fail := errors.New("down")
	for _, tc := range []struct {
		name   string
		vals   []uint64
		errs   []error
		best   uint64
		bestN  int
		losers []uint64
		ok     int
	}{
		{"3-0", []uint64{7, 7, 7}, nil, 7, 3, nil, 3},
		{"2-1", []uint64{9, 7, 9}, nil, 9, 2, []uint64{7}, 3},
		{"1-2", []uint64{3, 8, 8}, nil, 8, 2, []uint64{3}, 3},
		{"1-1-1", []uint64{9, 4, 6}, nil, 4, 1, []uint64{9, 6}, 3},
		{"all failed", []uint64{1, 2, 3}, []error{fail, fail, fail}, 0, 0, nil, 0},
		{"1-1 tie, one failed", []uint64{8, 5, 2}, []error{nil, nil, fail}, 5, 1, []uint64{8}, 2},
		{"2-2 tie", []uint64{6, 3, 6, 3}, nil, 3, 2, []uint64{6, 6}, 4},
		{"failed majority value", []uint64{4, 4, 9}, []error{fail, fail, nil}, 9, 1, nil, 1},
	} {
		results := make([]callResult, len(tc.vals))
		for i, v := range tc.vals {
			results[i] = callResult{slot: i, val: v}
			if tc.errs != nil {
				results[i].err = tc.errs[i]
			}
		}
		best, bestN, losers, ok := tally(results)
		var lost []uint64
		for _, r := range losers {
			lost = append(lost, r.val)
		}
		if best != tc.best || bestN != tc.bestN || ok != tc.ok || fmt.Sprint(lost) != fmt.Sprint(tc.losers) {
			t.Errorf("%s: best %d by %d of %d ok, losers %v; want %d by %d of %d, losers %v",
				tc.name, best, bestN, ok, lost, tc.best, tc.bestN, tc.ok, tc.losers)
		}
	}
}

// TestGetAllocs: a read through a warm router to three warm nodes on
// loopback allocates nothing, on the router or on a node, when no call
// has to wait for a connection; a write allocates one object.
func TestGetAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HealthInterval = time.Hour // no probe runs during the count
	var backends []Backend
	for i := 0; i < 3; i++ {
		backends = append(backends, remoteNode(t, fmt.Sprintf("node-%d", i), 2))
	}
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 64; i++ { // warm the connections, instances and histograms
		if _, err := c.Put(i, i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	var getErr error
	var key uint64
	n := testing.AllocsPerRun(200, func() {
		key = (key + 1) % 64
		if _, err := c.Get(key); err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		t.Fatal(getErr)
	}
	if n != 0 {
		t.Errorf("Cluster.Get allocates %v objects per request, want 0", n)
	}
	// A write allocates its log entry and nothing else: the applied set
	// is a bit set inside it.
	n = testing.AllocsPerRun(200, func() {
		key = (key + 1) % 64
		if _, err := c.Put(key, key); err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		t.Fatal(getErr)
	}
	if n > 1 {
		t.Errorf("Cluster.Put allocates %v objects per request, want at most 1", n)
	}
}
