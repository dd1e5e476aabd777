package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Config parameterizes a Cluster.
type Config struct {
	// Replicas is the replication factor R: every shard lives on R
	// distinct nodes (capped at the node count; default 3). Reads are
	// delivered only when a majority of R replicas agree on the reply;
	// writes are acknowledged only once a majority applied them.
	Replicas int
	// VNodes is the number of virtual ring points per node (default 64).
	VNodes int
	// Shards is the fixed shard count the keyspace is partitioned into
	// (default 64).
	Shards int
	// MaxRetries bounds how many times one request is re-routed after
	// quorum misses before it fails loudly (default 8).
	MaxRetries int
	// RetryBackoff is the base delay before a retry; it doubles per
	// attempt (default 1ms).
	RetryBackoff time.Duration
	// CallTimeout bounds every call the router makes to a node — the
	// calls of one fan-out, a replayed write, a health or readmission
	// probe, one audit's probes — so a hung node cannot stall the
	// router (default 2s).
	CallTimeout time.Duration
	// HealthInterval is the health checker's probe period (default
	// 100ms).
	HealthInterval time.Duration
	// BreakerThreshold opens a node's circuit breaker after this many
	// consecutive call/probe failures (default 3).
	BreakerThreshold int
	// SuspicionThreshold quarantines a node after this many of its
	// replies were masked by the voter (default 3) — a node that keeps
	// emitting corrupted replies is rebuilt, not just outvoted.
	SuspicionThreshold int
	// BreakerCooldown is how long an open breaker holds a node out of
	// rotation before a readmission probe (default 300ms).
	BreakerCooldown time.Duration
	// LogRetention bounds each shard's write log; fully-applied acked
	// prefixes beyond it are truncated (default 1<<16 entries).
	LogRetention int
	// Chaos layers whole-node kills and rebuilds on top of live
	// traffic (off by default).
	Chaos ChaosConfig
	// Seed feeds the chaos RNG.
	Seed int64
	// TraceDepth sizes the router's observability ring (default 8192).
	TraceDepth int
	// Node names the router in traces and flight bundles (default
	// "router").
	Node string
	// FlightDir, when set, makes the router write one JSON flight
	// bundle per masked corrupted reply; FlightMax bounds the bundles
	// kept in memory (default 64).
	FlightDir string
	FlightMax int
}

// DefaultConfig returns the standard router configuration.
func DefaultConfig() Config {
	return Config{
		Replicas:           3,
		VNodes:             64,
		Shards:             64,
		MaxRetries:         8,
		RetryBackoff:       time.Millisecond,
		CallTimeout:        2 * time.Second,
		HealthInterval:     100 * time.Millisecond,
		BreakerThreshold:   3,
		SuspicionThreshold: 3,
		BreakerCooldown:    300 * time.Millisecond,
		LogRetention:       1 << 16,
		Seed:               1,
		TraceDepth:         8192,
		Node:               "router",
	}
}

// ErrClusterClosed is returned for requests against a closed cluster.
var ErrClusterClosed = errors.New("cluster: closed")

// ErrNoQuorum is wrapped into request failures when the replica set
// could not produce a majority-agreed reply within the retry budget.
var ErrNoQuorum = errors.New("cluster: no reply quorum")

var errCallTimeout = errors.New("cluster: replica call timed out")

// fanoutInline is the replica count whose fan-out state lives on the
// request's stack; a larger R spills to the heap.
const fanoutInline = 5

// nodeStateKind is a node's position in the health state machine.
type nodeStateKind int32

const (
	nodeHealthy nodeStateKind = iota
	// nodeQuarantined: circuit breaker open (consecutive failures or
	// voter suspicion); out of rotation until a cooldown probe.
	nodeQuarantined
	// nodeRebuilding: readmission in progress — the node accepts
	// writes (so it cannot fall behind again) while the write log is
	// replayed into it; reads wait until it is fully healthy.
	nodeRebuilding
	// nodeDead: killed by the chaos layer; waiting for restart.
	nodeDead
)

func (s nodeStateKind) String() string {
	switch s {
	case nodeHealthy:
		return "healthy"
	case nodeQuarantined:
		return "quarantined"
	case nodeRebuilding:
		return "rebuilding"
	case nodeDead:
		return "dead"
	}
	return "unknown"
}

// node wraps a Backend with its router-side health state.
type node struct {
	idx int
	be  Backend

	mu          sync.Mutex
	state       nodeStateKind
	consecFails int
	suspicion   int
	openedAt    time.Time
	generation  int
	// needsRestart marks quarantines that must rebuild the backend
	// (voter suspicion, chaos kill) rather than just replay into it.
	needsRestart bool
}

func (n *node) getState() nodeStateKind {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// nodeStates returns every node's current state name by node id.
func (c *Cluster) nodeStates() map[string]string {
	states := make(map[string]string, len(c.nodes))
	for _, n := range c.nodes {
		states[n.be.ID()] = n.getState().String()
	}
	return states
}

// serves reports whether the node takes live writes (write) or reads:
// only healthy nodes vote on reads, and rebuilding nodes take writes
// too, so replay converges instead of chasing a moving target.
func (n *node) serves(write bool) bool {
	s := n.getState()
	return s == nodeHealthy || write && s == nodeRebuilding
}

// Cluster is the routing front end: it owns the ring, the per-shard
// write logs, the health checker, and the voting request paths.
type Cluster struct {
	cfg     Config
	quorum  int
	nodes   []*node
	ring    *Ring
	shards  []*shardLog
	metrics *Metrics
	obsRing *obs.Ring
	flight  *obs.FlightRecorder
	// tidCounter feeds the trace-id mint for requests that arrive
	// untagged (direct Get/Put callers, old clients).
	tidCounter atomic.Uint64

	// primaries[shard] is the acting primary's replica ordinal,
	// guarded by pmu; failovers are detected against it.
	pmu       sync.Mutex
	primaries []int

	chaos  *chaosDriver
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// New builds a cluster over the given backends and starts the health
// checker (and the chaos driver, when configured). The cluster takes
// ownership of the backends: Close closes them.
func New(backends []Backend, cfg Config) (*Cluster, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	d := DefaultConfig()
	if cfg.Replicas <= 0 {
		cfg.Replicas = d.Replicas
	}
	if cfg.Replicas > len(backends) {
		cfg.Replicas = len(backends)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = d.VNodes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = d.Shards
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = d.MaxRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = d.RetryBackoff
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = d.CallTimeout
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = d.HealthInterval
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = d.BreakerThreshold
	}
	if cfg.SuspicionThreshold <= 0 {
		cfg.SuspicionThreshold = d.SuspicionThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = d.BreakerCooldown
	}
	if cfg.LogRetention <= 0 {
		cfg.LogRetention = d.LogRetention
	}
	if cfg.TraceDepth <= 0 {
		cfg.TraceDepth = d.TraceDepth
	}
	if cfg.Node == "" {
		cfg.Node = d.Node
	}

	ids := make([]string, len(backends))
	for i, b := range backends {
		ids[i] = b.ID()
	}
	ring, err := NewRing(ids, cfg.VNodes, cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		quorum:    cfg.Replicas/2 + 1,
		ring:      ring,
		obsRing:   obs.NewRing(cfg.TraceDepth),
		flight:    obs.NewFlightRecorder(cfg.Node, cfg.FlightDir, cfg.FlightMax),
		primaries: make([]int, cfg.Shards),
		closed:    make(chan struct{}),
	}
	c.metrics = newMetrics(c.nodeStates)
	c.tidCounter.Store(uint64(cfg.Seed) << 20)
	c.nodes = make([]*node, len(backends))
	for i, b := range backends {
		c.nodes[i] = &node{idx: i, be: b}
	}
	c.shards = make([]*shardLog, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		c.shards[s] = newShardLog(ring.Replicas(s, cfg.Replicas))
	}
	c.wg.Add(1)
	go c.healthLoop()
	if cfg.Chaos.active() {
		c.chaos = newChaosDriver(c)
		c.wg.Add(1)
		go c.chaos.loop()
	}
	return c, nil
}

// event emits a wall-domain router event into the observability ring.
func (c *Cluster) event(ev obs.Event) {
	ev.Domain = obs.DomainWall
	ev.Time = c.obsRing.Now()
	c.obsRing.Emit(ev)
}

// mintTrace returns a fresh nonzero trace id for a request that arrived
// untagged. splitmix64 over a seeded counter keeps ids well-spread (they
// key flow arrows and merge joins) yet deterministic per run.
func (c *Cluster) mintTrace() uint64 {
	for {
		if tid := obs.SplitMix64(c.tidCounter.Add(1)); tid != 0 {
			return tid
		}
	}
}

// Quorum returns the vote/ack quorum (majority of the replication
// factor — a single corrupted replica can never win a vote, even when
// the rest of its replica set is down).
func (c *Cluster) Quorum() int { return c.quorum }

// Replicas returns the effective replication factor.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// Ring returns the placement function (read-only).
func (c *Cluster) Ring() *Ring { return c.ring }

// ObsRing returns the router's observability ring buffer.
func (c *Cluster) ObsRing() *obs.Ring { return c.obsRing }

// Flight returns the router's flight recorder (vote-mask bundles).
func (c *Cluster) Flight() *obs.FlightRecorder { return c.flight }

// Node returns backend i (tests reach through this to node metrics).
func (c *Cluster) Node(i int) Backend { return c.nodes[i].be }

// callResult is one replica's answer to a fanned-out request.
type callResult struct {
	slot int // index of the node among the fan-out's targets
	node *node
	val  uint64
	err  error
	call any // a Splitter's call between its halves
}

// fanout sends req to every target before it reads any reply, from the
// calling goroutine, and returns the results in target order, stored in
// out's array when it has room. One deadline, CallTimeout from the
// start, bounds every call; a call it cuts short counts as failed. The
// calling goroutine reads only calls that have started, each of which
// waits on its own node alone, so it never holds one node's connection
// while it waits for another's. A call that could not start at once (no
// idle connection, a full queue), and a call to a backend that is not
// a Splitter (through Do), runs on a goroutine of its own, so one node's
// wait for a connection, a dial or room runs beside the others' calls,
// not before them; one still unanswered at the deadline finishes in the
// background against a buffered channel.
func (c *Cluster) fanout(targets []*node, req serve.Request, out []callResult) []callResult {
	at := c.deadline()
	var async chan callResult
	pending := 0 // calls on goroutines of their own
	out = out[:0]
	for i, n := range targets {
		r := callResult{slot: i, node: n}
		wait := true
		if sp, ok := n.be.(Splitter); ok {
			r.call, wait, r.err = sp.Send(req, at)
		}
		if wait && r.err == nil {
			if async == nil {
				async = make(chan callResult, len(targets))
			}
			pending++
			go callAsync(r, req, at, async)
			r.call, r.err = nil, errCallTimeout // until its answer arrives
		}
		out = append(out, r)
	}
	for i := range out {
		if r := &out[i]; r.call != nil {
			r.val, r.err = r.node.be.(Splitter).Recv(r.call, at)
			r.call = nil
		}
	}
	if pending == 0 {
		return out
	}
	d := serve.Deadline{At: at}
	defer d.Stop()
collect:
	for ; pending > 0; pending-- {
		select {
		case r := <-async:
			out[r.slot] = r
		case <-d.Done():
			break collect
		}
	}
	return out
}

// callAsync answers r — through Recv for a Splitter's call that could
// not start at once, through the node's Do otherwise — and sends it on
// ch.
func callAsync(r callResult, req serve.Request, at time.Time, ch chan<- callResult) {
	if r.call != nil {
		r.val, r.err = r.node.be.(Splitter).Recv(r.call, at)
		r.call = nil
	} else {
		r.val, r.err = r.node.be.Do(req)
	}
	ch <- r
}

// deadline is the bound of one call to a node, or of one batch of calls
// made together: CallTimeout from now.
func (c *Cluster) deadline() time.Time {
	return time.Now().Add(c.cfg.CallTimeout)
}

// ping probes one node, bounded by CallTimeout.
func (c *Cluster) ping(n *node) error {
	return n.be.Ping(c.deadline())
}

// account folds a call result into the node's breaker state.
func (c *Cluster) account(r callResult) {
	n := r.node
	if r.err != nil {
		c.metrics.nodeFails.With(n.be.ID()).Inc()
		c.recordFailure(n)
		return
	}
	c.metrics.nodeServed.With(n.be.ID()).Inc()
	n.mu.Lock()
	n.consecFails = 0
	n.mu.Unlock()
}

// tally groups successful replies by value and returns the winning
// value — the most supporters, the smallest value among a tie — and its
// supporters; losers is every successful reply that disagreed with the
// winner. With at most R replies it counts each value by a scan.
func tally(results []callResult) (best uint64, bestN int, losers []callResult, ok int) {
	for _, r := range results {
		if r.err != nil {
			continue
		}
		ok++
		n := 0
		for _, q := range results {
			if q.err == nil && q.val == r.val {
				n++
			}
		}
		if n > bestN || n == bestN && r.val < best {
			best, bestN = r.val, n
		}
	}
	for _, r := range results {
		if r.err == nil && r.val != best {
			losers = append(losers, r)
		}
	}
	return best, bestN, losers, ok
}

// maskLosers counts and reports every reply that disagreed with the
// winning majority: each is a detected corruption, masked before
// delivery, and suspicion against the emitting node. Every mask also
// captures a "vote-mask" flight bundle so forensics can chase the
// corrupted reply back into the emitting node's own bundles by trace
// id.
func (c *Cluster) maskLosers(req serve.Request, shard int, best uint64, losers []callResult) {
	for _, r := range losers {
		id := r.node.be.ID()
		c.metrics.mask(id)
		c.event(obs.Event{Kind: obs.KindVoteMask, Actor: int32(r.node.idx),
			A: uint64(shard), B: r.val, Label: id, TraceID: req.TraceID})
		c.recordMask(req, shard, best, id, r.val)
		c.suspect(r.node)
	}
}

// recordMask captures the router-side forensic bundle for one masked
// reply: the request word, the majority the cluster delivered, the
// outvoted value, and the router ring neighborhood.
func (c *Cluster) recordMask(req serve.Request, shard int, best uint64, nodeID string, masked uint64) {
	word := workloads.KVRequestWord(req.Write, req.Key, req.Value)
	b := &obs.FlightBundle{
		Kind:     "vote-mask",
		Cause:    "reply from " + nodeID + " outvoted by majority",
		Requests: []string{obs.HexWord(word)},
		Replies:  []string{obs.HexWord(masked)},
		Expected: []string{obs.HexWord(best)},
		Shard:    shard,
		Majority: obs.HexWord(best),
		Masked:   obs.HexWord(masked),
	}
	if req.TraceID != 0 {
		b.Trace = obs.HexWord(req.TraceID)
		b.Traces = []string{obs.HexWord(req.TraceID)}
	}
	evs := c.obsRing.Snapshot()
	const window = 64
	if len(evs) > window {
		evs = evs[len(evs)-window:]
	}
	b.Window = obs.ToRecords(evs)
	c.flight.Record(b)
}

// vote routes req to its shard's replicas and delivers only a reply a
// majority of R agree on, re-routing after a miss up to MaxRetries
// times. A read goes to the readable replicas. A write is first
// appended to the shard's sequenced log, goes to the writable replicas
// (rebuilding ones too), and is acknowledged only once a majority
// applied it as well; re-executing a write on a replica is idempotent
// (same value into the same slot), so a retry simply re-fans it to
// every writable replica.
func (c *Cluster) vote(req serve.Request) (uint64, error) {
	shard := c.ring.ShardOf(req.Key)
	lg := c.shards[shard]
	kind := "read"
	var entry *logEntry
	if req.Write {
		kind = "write"
		entry = lg.append(req)
		defer lg.truncate(c.cfg.LogRetention)
	}
	c.event(obs.Event{Kind: obs.KindDispatch, A: uint64(shard),
		Label: kind, TraceID: req.TraceID})
	var lastErr error
	var tbuf [fanoutInline]*node
	var rbuf [fanoutInline]callResult
	for attempt := 0; ; attempt++ {
		targets := tbuf[:0]
		for _, ni := range lg.replicas {
			if c.nodes[ni].serves(req.Write) {
				targets = append(targets, c.nodes[ni])
			}
		}
		if len(targets) >= c.quorum {
			start := time.Now()
			results := c.fanout(targets, req, rbuf[:0])
			c.metrics.fanoutWait.Observe(time.Since(start))
			applied := 0
			for _, r := range results {
				c.account(r)
				if entry != nil && r.err == nil {
					applied = lg.markApplied(entry, lg.ordinalOf(r.node.idx))
				}
			}
			best, bestN, losers, ok := tally(results)
			c.metrics.votes.Add(uint64(ok))
			if bestN >= c.quorum && (entry == nil || applied >= c.quorum) {
				c.event(obs.Event{Kind: obs.KindVote, A: uint64(shard),
					B: best, TraceID: req.TraceID})
				c.maskLosers(req, shard, best, losers)
				if entry != nil {
					lg.ack(entry)
					c.metrics.ackedWrites.Inc()
				}
				return best, nil
			}
			if entry == nil {
				lastErr = fmt.Errorf("%w: shard %d: best %d/%d (of %d replies)",
					ErrNoQuorum, shard, bestN, c.quorum, ok)
			} else {
				lastErr = fmt.Errorf("%w: shard %d write seq %d: vote %d/%d, applied %d/%d",
					ErrNoQuorum, shard, entry.seq, bestN, c.quorum, applied, c.quorum)
			}
		} else {
			lastErr = fmt.Errorf("%w: shard %d: only %d/%d replicas take %ss",
				ErrNoQuorum, shard, len(targets), c.quorum, kind)
		}
		c.metrics.noQuorum.Inc()
		if attempt >= c.cfg.MaxRetries {
			return 0, lastErr
		}
		c.metrics.retries.Inc()
		select {
		case <-c.closed:
			return 0, ErrClusterClosed
		case <-time.After(c.cfg.RetryBackoff << uint(min(attempt, 10))):
		}
	}
}

// Do routes one request through the cluster: shard placement, replica
// fan-out, majority vote, delivery.
func (c *Cluster) Do(req serve.Request) (uint64, error) {
	select {
	case <-c.closed:
		return 0, ErrClusterClosed
	default:
	}
	if req.TraceID == 0 {
		// Untagged request: mint the trace id here so the dispatch,
		// per-node exec, and vote spans still join into one trace.
		req.TraceID = c.mintTrace()
	}
	c.metrics.request(req.Write)
	t0 := time.Now()
	v, err := c.vote(req)
	if err != nil {
		c.metrics.failed.Inc()
		return 0, err
	}
	c.metrics.response(time.Since(t0))
	return v, nil
}

// Get reads a key through the voting path.
func (c *Cluster) Get(key uint64) (uint64, error) {
	return c.Do(serve.Request{Key: key})
}

// Put writes a key through the replicated, sequenced path.
func (c *Cluster) Put(key, value uint64) (uint64, error) {
	return c.Do(serve.Request{Write: true, Key: key, Value: value})
}

// recordFailure feeds the node's circuit breaker; enough consecutive
// failures open it (quarantine).
func (c *Cluster) recordFailure(n *node) {
	n.mu.Lock()
	n.consecFails++
	trip := n.state == nodeHealthy && n.consecFails >= c.cfg.BreakerThreshold
	n.mu.Unlock()
	if trip {
		c.quarantineNode(n, false, "breaker")
	}
}

// suspect feeds the voter's corruption suspicion; enough masked
// replies quarantine the node for a full rebuild.
func (c *Cluster) suspect(n *node) {
	n.mu.Lock()
	n.suspicion++
	trip := n.state == nodeHealthy && n.suspicion >= c.cfg.SuspicionThreshold
	n.mu.Unlock()
	if trip {
		c.quarantineNode(n, true, "suspicion")
	}
}

// quarantineNode opens the breaker: the node leaves rotation until the
// cooldown probe readmits it (restart forces a backend rebuild first).
func (c *Cluster) quarantineNode(n *node, restart bool, cause string) {
	n.mu.Lock()
	if n.state != nodeHealthy {
		n.mu.Unlock()
		return
	}
	n.state = nodeQuarantined
	n.openedAt = time.Now()
	n.needsRestart = n.needsRestart || restart
	gen := n.generation
	n.mu.Unlock()
	c.metrics.quarantines.Inc()
	c.event(obs.Event{Kind: obs.KindNodeState, Actor: int32(n.idx),
		A: uint64(gen), Label: "quarantined/" + cause})
	c.recomputePrimaries()
}

// readmit brings a node back: rebuild the backend if required, clear
// its applied bits (its state may be gone), make it writable, replay
// the write log into it, then return it to full (readable) health.
// On failure — the rebuild or the probe fails, or the replay stops at a
// write the node fails, leaving it without acked writes — the node
// reverts to quarantined and the next cooldown probe retries.
func (c *Cluster) readmit(n *node) {
	n.mu.Lock()
	restart := n.needsRestart
	n.needsRestart = false
	n.generation++
	gen := n.generation
	n.state = nodeRebuilding
	n.mu.Unlock()
	c.event(obs.Event{Kind: obs.KindNodeState, Actor: int32(n.idx),
		A: uint64(gen), Label: "rebuilding"})

	requarantine := func(restartAgain bool) {
		n.mu.Lock()
		n.state = nodeQuarantined
		n.openedAt = time.Now()
		n.needsRestart = n.needsRestart || restartAgain
		n.mu.Unlock()
	}
	if restart {
		if k, ok := n.be.(Killable); ok {
			if err := k.Restart(); err != nil {
				requarantine(true)
				return
			}
		}
	}
	if err := c.ping(n); err != nil {
		requarantine(restart)
		return
	}
	// The node's durable state cannot be trusted across a quarantine
	// (a rebuilt backend starts empty); replay the whole retained log.
	for _, lg := range c.shards {
		lg.clearApplied(n.idx)
	}
	replayed, complete := c.replayNode(n)
	c.metrics.replayedWrites.Add(uint64(replayed))
	if !complete {
		requarantine(restart)
		return
	}
	c.metrics.rebuilds.Inc()
	n.mu.Lock()
	n.state = nodeHealthy
	n.consecFails = 0
	n.suspicion = 0
	n.mu.Unlock()
	c.event(obs.Event{Kind: obs.KindNodeState, Actor: int32(n.idx),
		A: uint64(gen), Label: "healthy"})
	c.recomputePrimaries()
}

// replayNode streams every retained write the node has not applied
// back into it, in sequence order, until none are pending (live writes
// keep landing on the node concurrently — it is already writable — so
// the loop converges). Each write is a fan-out to the node alone, under
// the fan-out's bound, and feeds no breaker. The first write the node
// fails ends the replay: the node went away again, and no later write
// may overtake the failed one. Returns how many writes were replayed,
// and whether none is left pending.
func (c *Cluster) replayNode(n *node) (replayed int, complete bool) {
	one := [1]*node{n}
	var rbuf [1]callResult
	for _, lg := range c.shards {
		ord := lg.ordinalOf(n.idx)
		if ord < 0 {
			continue
		}
		for pending := lg.pendingFor(n.idx); len(pending) > 0; pending = lg.pendingFor(n.idx) {
			for _, e := range pending {
				if c.fanout(one[:], e.req, rbuf[:0])[0].err != nil {
					return replayed, false
				}
				lg.markApplied(e, ord)
				replayed++
			}
		}
	}
	return replayed, true
}

// recomputePrimaries re-derives each shard's acting primary (the
// first replica whose node is healthy or rebuilding) and counts a
// failover whenever it moves.
func (c *Cluster) recomputePrimaries() {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	for s, lg := range c.shards {
		cur := c.primaries[s]
		next := cur
		for ord, ni := range lg.replicas {
			if c.nodes[ni].serves(true) {
				next = ord
				break
			}
		}
		if next != cur {
			c.primaries[s] = next
			c.metrics.failovers.Inc()
			c.event(obs.Event{Kind: obs.KindFailover, Actor: int32(lg.replicas[next]),
				A: uint64(s), Label: c.nodes[lg.replicas[next]].be.ID()})
		}
	}
}

// healthLoop probes every healthy node each HealthInterval, one at a
// time and each within CallTimeout: failures feed the breaker, expired
// cooldowns trigger readmission probes.
func (c *Cluster) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
		}
		for _, n := range c.nodes {
			switch n.getState() {
			case nodeHealthy:
				if err := c.ping(n); err != nil {
					c.metrics.nodeFails.With(n.be.ID()).Inc()
					c.recordFailure(n)
				}
			case nodeQuarantined:
				n.mu.Lock()
				due := time.Since(n.openedAt) >= c.cfg.BreakerCooldown
				n.mu.Unlock()
				if due {
					// readmit restarts the backend when needed and
					// reverts to quarantined on failure.
					c.readmit(n)
				}
			case nodeDead, nodeRebuilding:
				// dead: the chaos driver owns the restart;
				// rebuilding: a readmission is already in flight.
			}
		}
	}
}

// InvariantReport is the cluster-wide safety accounting tests and the
// chaos harness assert on.
type InvariantReport struct {
	// LostAckedWrites counts acknowledged writes with no surviving
	// applied copy on any live replica. Invariant: zero.
	LostAckedWrites int `json:"lost_acked_writes"`
	// UnappliedPairs counts (entry, replica) pairs still pending —
	// zero after SyncReplicas when every node is up.
	UnappliedPairs int `json:"unapplied_pairs"`
	// DeliveredCorruptions mirrors the metrics counter. Invariant:
	// zero.
	DeliveredCorruptions uint64 `json:"delivered_corruptions"`
}

// CheckInvariants audits the write logs against live nodes and
// refreshes the lost-acked-writes metric. It asks each node once
// whether it is live, before it takes any shard log's lock, so no probe
// runs under one and a node that never answers delays the audit by one
// CallTimeout, not the writes.
func (c *Cluster) CheckInvariants() InvariantReport {
	live := c.liveNodes()
	lost, unapplied := 0, 0
	for _, lg := range c.shards {
		lost += lg.lost(live)
		unapplied += lg.unapplied()
	}
	c.metrics.lostAcked.Store(uint64(lost))
	return InvariantReport{
		LostAckedWrites:      lost,
		UnappliedPairs:       unapplied,
		DeliveredCorruptions: c.metrics.corrupted.Load(),
	}
}

// liveNodes pings every node that is not dead, all at once and under
// one deadline of CallTimeout, and reports which answered, by node
// index.
func (c *Cluster) liveNodes() []bool {
	live := make([]bool, len(c.nodes))
	at := c.deadline()
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		if n.getState() == nodeDead {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			live[i] = n.be.Ping(at) == nil
		}()
	}
	wg.Wait()
	return live
}

// SyncReplicas replays every pending write into every writable node
// (the quiesced end-of-run convergence pass the chaos tests use before
// auditing). Returns the number of writes replayed.
func (c *Cluster) SyncReplicas() int {
	total := 0
	for _, n := range c.nodes {
		if n.serves(true) {
			replayed, _ := c.replayNode(n)
			total += replayed
		}
	}
	c.metrics.replayedWrites.Add(uint64(total))
	return total
}

// Metrics returns a snapshot of the router registry, stamped with the
// cluster shape.
func (c *Cluster) Metrics() Snapshot {
	s := c.metrics.Snapshot()
	s.NodeStates = c.nodeStates()
	s.Nodes = len(c.nodes)
	s.Replicas = c.cfg.Replicas
	s.Shards = c.cfg.Shards
	return s
}

// WriteProm renders the router metrics in Prometheus text format.
func (c *Cluster) WriteProm(w io.Writer) { c.metrics.reg.WriteProm(w) }

// Health reports router liveness for /healthz: healthy while the
// cluster is open and every shard retains a read quorum.
func (c *Cluster) Health() obs.Health {
	ok := true
	select {
	case <-c.closed:
		ok = false
	default:
	}
	degraded := 0
	for _, lg := range c.shards {
		readable := 0
		for _, ni := range lg.replicas {
			if c.nodes[ni].serves(false) {
				readable++
			}
		}
		if readable < c.quorum {
			degraded++
		}
	}
	snap := c.Metrics()
	return obs.Health{
		OK: ok && degraded == 0,
		Detail: map[string]any{
			"nodes":                len(c.nodes),
			"replicas":             c.cfg.Replicas,
			"shards":               c.cfg.Shards,
			"shards_below_quorum":  degraded,
			"node_states":          snap.NodeStates,
			"detected_corruptions": snap.DetectedCorruptions,
			"lost_acked_writes":    snap.LostAckedWrites,
			"closed":               !ok,
		},
	}
}

// DebugHandler returns the router's HTTP debug endpoints: /metrics
// (router + any extra writers), /trace (the router ring as Chrome
// trace JSON), /healthz. Every /metrics scrape re-audits the write
// logs first so haft_cluster_lost_acked_writes_total is current at
// scrape time, not a stale snapshot.
func (c *Cluster) DebugHandler(extra ...func(io.Writer)) http.Handler {
	prom := func(w io.Writer) {
		c.CheckInvariants()
		c.WriteProm(w)
	}
	return obs.NewHandler(obs.HandlerConfig{
		Metrics: append([]func(io.Writer){prom}, extra...),
		Ring:    c.obsRing,
		Health:  c.Health,
		Node:    c.cfg.Node,
	})
}

// Close shuts the router down and closes every backend.
func (c *Cluster) Close() {
	c.once.Do(func() {
		close(c.closed)
		c.wg.Wait()
		for _, n := range c.nodes {
			n.be.Close()
		}
	})
}
