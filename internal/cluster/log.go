package cluster

import (
	"sync"

	"repro/internal/serve"
)

// logEntry is one sequenced write in a shard's log. applied is indexed
// by replica ordinal (position in the shard's replica set), tracked
// router-side: a bit is set once that replica acknowledged executing
// the write, and cleared wholesale when the node is rebuilt with fresh
// state.
type logEntry struct {
	seq     uint64
	req     serve.Request
	acked   bool
	applied []bool
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
	e := &logEntry{seq: l.nextSeq, req: req, applied: make([]bool, len(l.replicas))}
	l.entries = append(l.entries, e)
	return e
}

// markApplied records that replica ordinal ord executed entry e, and
// reports how many replicas have applied it now.
func (l *shardLog) markApplied(e *logEntry, ord int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.applied[ord] = true
	n := 0
	for _, a := range e.applied {
		if a {
			n++
		}
	}
	return n
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
		e.applied[ord] = false
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
		if !e.applied[ord] {
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
		for ord, a := range e.applied {
			if a && live[l.replicas[ord]] {
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
		for _, a := range e.applied {
			if !a {
				n++
			}
		}
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
		all := e.acked
		for _, a := range e.applied {
			all = all && a
		}
		if !all {
			break
		}
		cut++
	}
	if cut > 0 {
		l.entries = append([]*logEntry(nil), l.entries[cut:]...)
	}
}
