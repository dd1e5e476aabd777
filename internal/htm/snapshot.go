package htm

import "maps"

// Snapshot is a deep copy of everything a run can change in a System:
// the per-core transactional state, the statistics and the position of
// the spontaneous-abort stream. It is immutable once taken and may be
// restored into any number of systems of the same shape concurrently.
//
// The read/write sets of an inactive transaction are dead state (Begin
// clears them before their next use), so they are neither copied nor
// compared.
type Snapshot struct {
	cores []txSnap
	stats Stats
	draws uint64
}

// txSnap is the captured state of one core; the sets are held as their
// entries in insertion order, so a restored write buffer commits in the
// order the original would have. The read and write sets hold keys only
// (their values are unused), and the per-set line counts are not held at
// all: they are a function of the read set, which Restore recounts.
type txSnap struct {
	active            bool
	doomed            Cause
	startCycle        uint64
	readSet, writeSet []uint64
	writeVals         []entry
}

// Bytes estimates the memory the snapshot holds.
func (sn *Snapshot) Bytes() int {
	n := 0
	for i := range sn.cores {
		c := &sn.cores[i]
		n += 8*(len(c.readSet)+len(c.writeSet)) + 16*len(c.writeVals)
	}
	return n
}

// Snapshot captures the system's state.
func (s *System) Snapshot() *Snapshot {
	sn := &Snapshot{cores: make([]txSnap, len(s.cores)), stats: s.Stats, draws: s.draws}
	sn.stats.Aborted = maps.Clone(s.Stats.Aborted)
	for i := range s.cores {
		t := &s.cores[i]
		c := txSnap{active: t.active, doomed: t.doomed, startCycle: t.startCycle}
		if t.active {
			c.readSet = t.readSet.keys(nil)
			c.writeSet = t.writeSet.keys(nil)
			c.writeVals = t.writeVals.entries(nil)
		}
		sn.cores[i] = c
	}
	return sn
}

// Restore returns the system to the snapshot's state, whatever it ran
// since: a restored system continues exactly as the one the snapshot
// was taken from. The stream position is just set: the next draw reads
// the seed's shared memo, and only one past the memo seeds the System's
// private generator and skips to it (see System.generate).
func (s *System) Restore(sn *Snapshot) {
	if len(sn.cores) != len(s.cores) {
		panic("htm: Restore of a snapshot with a different core count")
	}
	for i := range s.cores {
		t, c := &s.cores[i], &sn.cores[i]
		t.active, t.doomed, t.startCycle = c.active, c.doomed, c.startCycle
		if !c.active {
			continue
		}
		s.setDeadline(t)
		t.readSet.loadKeys(c.readSet)
		t.writeSet.loadKeys(c.writeSet)
		t.writeVals.load(c.writeVals)
		s.countSets(t)
	}
	s.Stats = sn.stats
	s.Stats.Aborted = maps.Clone(sn.stats.Aborted)
	s.draws = sn.draws
}

// Equal reports whether the system is in exactly the snapshot's state,
// i.e. whether it would behave from here on as the snapshotted system
// did.
func (s *System) Equal(sn *Snapshot) bool {
	if s.draws != sn.draws || len(s.cores) != len(sn.cores) || !s.Stats.equal(sn.stats) {
		return false
	}
	for i := range s.cores {
		t, c := &s.cores[i], &sn.cores[i]
		if t.active != c.active || t.doomed != c.doomed || t.startCycle != c.startCycle {
			return false
		}
		if t.active && !(t.readSet.equalKeys(c.readSet) && t.writeSet.equalKeys(c.writeSet) &&
			t.writeVals.equal(c.writeVals)) {
			return false // setCount is a function of readSet
		}
	}
	return true
}

// countSets makes the core's per-set line counts those of its read set,
// as Read built them line by line.
func (s *System) countSets(t *tx) {
	s.clearSets(t)
	if s.cfg.L1Sets == 0 {
		return
	}
	for _, i := range t.readSet.live {
		t.setCount[t.readSet.slots[i].key%uint64(s.cfg.L1Sets)]++
	}
}

func (s *Stats) equal(o Stats) bool {
	return s.Started == o.Started && s.Committed == o.Committed &&
		s.FallbackRuns == o.FallbackRuns && s.TxCycles == o.TxCycles &&
		s.WastedCycles == o.WastedCycles && s.MaxWriteSet == o.MaxWriteSet &&
		s.MaxReadSet == o.MaxReadSet && maps.Equal(s.Aborted, o.Aborted)
}
