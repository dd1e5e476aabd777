package cluster

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// ChaosConfig parameterizes whole-node chaos: the cluster-tier
// counterpart of serve.ChaosConfig's instance-level kills. Where the
// serving layer kills one warm VM inside a node, this layer kills the
// *node* — the router must fail reads over to the surviving replicas,
// keep acknowledging writes at quorum, and replay the write log into
// the rebuilt node before readmitting it.
type ChaosConfig struct {
	// KillInterval is the mean time between node-kill attempts
	// (0 disables the driver).
	KillInterval time.Duration
	// RebuildDelay is how long a killed node stays down before the
	// driver restarts it (default 200ms).
	RebuildDelay time.Duration
	// Rolling keeps kills safe: a node is only killed when every shard
	// it serves retains a read quorum among the remaining healthy
	// replicas.
	Rolling bool
}

func (cc ChaosConfig) active() bool { return cc.KillInterval > 0 }

// chaosDriver kills and rebuilds nodes on a jittered interval.
type chaosDriver struct {
	c   *Cluster
	cfg ChaosConfig

	mu  sync.Mutex
	rng *rand.Rand
}

func newChaosDriver(c *Cluster) *chaosDriver {
	cfg := c.cfg.Chaos
	if cfg.RebuildDelay <= 0 {
		cfg.RebuildDelay = 200 * time.Millisecond
	}
	return &chaosDriver{
		c:   c,
		cfg: cfg,
		rng: rand.New(rand.NewSource(c.cfg.Seed ^ 0xc1a05)),
	}
}

// interval draws the next kill delay: the configured interval with
// ±50% jitter so kills do not phase-lock with the health checker.
func (d *chaosDriver) interval() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	half := int64(d.cfg.KillInterval) / 2
	return time.Duration(half + d.rng.Int63n(int64(d.cfg.KillInterval)))
}

func (d *chaosDriver) loop() {
	defer d.c.wg.Done()
	for {
		select {
		case <-d.c.closed:
			return
		case <-time.After(d.interval()):
		}
		d.killOne()
	}
}

// killable reports whether killing node ni keeps every shard it
// serves at-or-above read quorum among the remaining healthy
// replicas — the rolling guarantee.
func (d *chaosDriver) killable(ni int) bool {
	n := d.c.nodes[ni]
	if _, ok := n.be.(Killable); !ok {
		return false
	}
	if n.getState() != nodeHealthy {
		return false
	}
	if !d.cfg.Rolling {
		return true
	}
	for _, lg := range d.c.shards {
		if lg.ordinalOf(ni) < 0 {
			continue
		}
		healthy := 0
		for _, r := range lg.replicas {
			if r != ni && d.c.nodes[r].getState() == nodeHealthy {
				healthy++
			}
		}
		if healthy < d.c.quorum {
			return false
		}
	}
	return true
}

// killOne picks a random safely-killable node, kills it mid-traffic,
// and schedules its rebuild.
func (d *chaosDriver) killOne() {
	c := d.c
	var candidates []int
	for ni := range c.nodes {
		if d.killable(ni) {
			candidates = append(candidates, ni)
		}
	}
	if len(candidates) == 0 {
		return
	}
	d.mu.Lock()
	ni := candidates[d.rng.Intn(len(candidates))]
	d.mu.Unlock()
	n := c.nodes[ni]

	n.mu.Lock()
	if n.state != nodeHealthy {
		n.mu.Unlock()
		return
	}
	n.state = nodeDead
	n.needsRestart = true
	gen := n.generation
	n.mu.Unlock()

	n.be.(Killable).Kill()
	c.metrics.nodeKills.Inc()
	c.event(obs.Event{Kind: obs.KindChaos, Actor: int32(ni), Label: "node-kill"})
	c.event(obs.Event{Kind: obs.KindNodeState, Actor: int32(ni),
		A: uint64(gen), Label: "dead"})
	c.recomputePrimaries()

	// Rebuild after the configured downtime: readmit restarts the
	// backend (needsRestart is set), replays the write log into the
	// fresh node, and reverts to quarantined on failure (the health
	// loop keeps retrying from there).
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-c.closed:
			return
		case <-time.After(d.cfg.RebuildDelay):
		}
		c.readmit(n)
	}()
}
