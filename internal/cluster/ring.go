// Package cluster is the sharded, replicated multi-node serving tier:
// it spreads the KV keyspace across N hardened server instances with a
// consistent-hash ring, replicates every shard across R instances, and
// routes requests through a reply-voting reader path and a
// sequence-numbered primary/backup writer path — so the serving
// layer's zero-delivered-corruptions invariant holds *cluster-wide*,
// even while whole nodes die mid-traffic.
//
// The design transplants two ideas on top of internal/serve:
//
//   - Elzar-style majority voting (PAPERS.md): instead of trusting one
//     hardened instance and aborting on detection, a read fans out to
//     the shard's replica set and only a majority-agreed reply is
//     delivered. A replica that disagrees with the majority is *masked*
//     (its reply discarded, the disagreement counted as a detected
//     corruption) and accumulates suspicion toward quarantine — the
//     vote corrects in place, no client-visible retry needed.
//   - fault-tolerant-Ivy-style replica management (SNIPPETS.md): a
//     health checker with per-node circuit breakers drives nodes
//     through healthy → quarantined → rebuilding → healthy, and a
//     per-shard sequence-numbered write log replays acknowledged
//     writes into rebuilt or failed-over replicas so no acknowledged
//     write is ever lost.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// fnv64a hashes a vnode label onto the ring.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int // index into the node list
}

// Ring is the consistent-hash placement function: every node
// contributes VNodes virtual points, the keyspace is partitioned into
// a fixed number of shards, and each shard's replica set is the first
// R *distinct* nodes clockwise from the shard's ring position. The
// placement is a pure function of (node ids, vnodes, shards) — every
// router and test computes the same layout with no coordination.
type Ring struct {
	nodeIDs []string
	vnodes  int
	shards  int
	points  []ringPoint
	// replicaSets[shard] is the precomputed full node preference order
	// for the shard (all nodes, distinct, clockwise); readers slice the
	// first R.
	replicaSets [][]int
}

// NewRing builds the placement for the given node ids. vnodes and
// shards default to 64 and 64.
func NewRing(nodeIDs []string, vnodes, shards int) (*Ring, error) {
	if len(nodeIDs) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := map[string]bool{}
	for _, id := range nodeIDs {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		seen[id] = true
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	if shards <= 0 {
		shards = 64
	}
	r := &Ring{
		nodeIDs: append([]string(nil), nodeIDs...),
		vnodes:  vnodes,
		shards:  shards,
	}
	r.points = make([]ringPoint, 0, len(nodeIDs)*vnodes)
	for n, id := range r.nodeIDs {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64a(fmt.Sprintf("%s#%d", id, v)),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	r.replicaSets = make([][]int, shards)
	for s := 0; s < shards; s++ {
		r.replicaSets[s] = r.walk(obs.SplitMix64(uint64(s) ^ 0x5ead5ead5ead5ead))
	}
	return r, nil
}

// walk returns all nodes in clockwise preference order from hash h.
func (r *Ring) walk(h uint64) []int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]int, 0, len(r.nodeIDs))
	taken := make([]bool, len(r.nodeIDs))
	for i := 0; i < len(r.points) && len(order) < len(r.nodeIDs); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.node] {
			taken[p.node] = true
			order = append(order, p.node)
		}
	}
	return order
}

// NumShards returns the shard count.
func (r *Ring) NumShards() int { return r.shards }

// ShardOf maps a key to its shard.
func (r *Ring) ShardOf(key uint64) int {
	return int(obs.SplitMix64(key) % uint64(r.shards))
}

// Replicas returns the shard's replica set: the first n distinct nodes
// in the shard's clockwise preference order (capped at the node
// count). The first entry is the shard's home primary.
func (r *Ring) Replicas(shard, n int) []int {
	set := r.replicaSets[shard]
	if n > len(set) {
		n = len(set)
	}
	if n <= 0 {
		n = 1
	}
	return set[:n]
}
