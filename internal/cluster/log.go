package cluster

import (
	"math/bits"
	"sync"

	"repro/internal/serve"
)

// maxReplicas bounds the replication factor: an entry's applied set is
// one bit per replica ordinal in a uint64.
const maxReplicas = 64

// logEntry is one sequenced write in a shard's log. applied has a bit
// per replica ordinal (position in the shard's replica set), tracked
// router-side: bit ord is set once that replica acknowledged executing
// the write, and cleared wholesale when the node is rebuilt with fresh
// state.
type logEntry struct {
	seq     uint64
	req     serve.Request
	acked   bool
	applied uint64
}

// shardLog is one shard's replication state: the replica set (fixed
// node indices, in ring preference order), the write sequence and the
// retained log.
type shardLog struct {
	mu       sync.Mutex
	replicas []int
	nextSeq  uint64
	entries  []*logEntry
}

func newShardLog(replicas []int) *shardLog {
	return &shardLog{replicas: append([]int(nil), replicas...)}
}

// all is the applied set of an entry every replica has applied.
func (l *shardLog) all() uint64 { return 1<<len(l.replicas) - 1 }

// ordinalOf returns the replica ordinal of node n, or -1.
func (l *shardLog) ordinalOf(n int) int {
	for i, r := range l.replicas {
		if r == n {
			return i
		}
	}
	return -1
}

// append assigns the next sequence number to a write and retains it.
func (l *shardLog) append(req serve.Request) *logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	e := &logEntry{seq: l.nextSeq, req: req}
	l.entries = append(l.entries, e)
	return e
}

// markApplied records that replica ordinal ord executed entry e, and
// reports how many replicas have applied it now.
func (l *shardLog) markApplied(e *logEntry, ord int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.applied |= 1 << ord
	return bits.OnesCount64(e.applied)
}

// ack marks an entry acknowledged to the client (quorum reached).
func (l *shardLog) ack(e *logEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.acked = true
}

// clearApplied wipes node n's applied bits — called when the node is
// rebuilt with fresh state, so every retained write becomes pending
// for it again.
func (l *shardLog) clearApplied(n int) {
	ord := l.ordinalOf(n)
	if ord < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		e.applied &^= 1 << ord
	}
}

// pendingFor snapshots, in sequence order, the entries node n has not
// applied — the replay stream for a readmitted node.
func (l *shardLog) pendingFor(n int) []*logEntry {
	ord := l.ordinalOf(n)
	if ord < 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*logEntry
	for _, e := range l.entries {
		if e.applied&(1<<ord) == 0 {
			out = append(out, e)
		}
	}
	return out
}

// lost counts acknowledged entries with no surviving applied copy
// among replicas whose node live reports up (live is indexed by node)
// — each is one lost acknowledged write, the number the cluster
// invariant pins at zero.
func (l *shardLog) lost(live []bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	lost := 0
	for _, e := range l.entries {
		if !e.acked {
			continue
		}
		ok := false
		for ord, n := range l.replicas {
			if e.applied&(1<<ord) != 0 && live[n] {
				ok = true
				break
			}
		}
		if !ok {
			lost++
		}
	}
	return lost
}

// unapplied counts (entries, replicas) pairs still pending across the
// whole log — zero once every replica has applied every retained
// write (the state SyncReplicas drives toward).
func (l *shardLog) unapplied() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		n += len(l.replicas) - bits.OnesCount64(e.applied)
	}
	return n
}

// truncate drops the longest fully-applied, acknowledged prefix once
// the log exceeds retain entries; entries still pending anywhere are
// never dropped (a rebuilt node must be able to replay them).
func (l *shardLog) truncate(retain int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if retain <= 0 || len(l.entries) <= retain {
		return
	}
	cut := 0
	for _, e := range l.entries[:len(l.entries)-retain] {
		if !e.acked || e.applied != l.all() {
			break
		}
		cut++
	}
	if cut > 0 {
		l.entries = append([]*logEntry(nil), l.entries[cut:]...)
	}
}
