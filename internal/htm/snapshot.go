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
	cores []tx
	stats Stats
	draws uint64
}

// Snapshot captures the system's state.
func (s *System) Snapshot() *Snapshot {
	sn := &Snapshot{cores: make([]tx, len(s.cores)), stats: s.Stats, draws: s.draws}
	sn.stats.Aborted = maps.Clone(s.Stats.Aborted)
	for i := range s.cores {
		t := &s.cores[i]
		c := tx{active: t.active, doomed: t.doomed, startCycle: t.startCycle}
		if t.active {
			c.readSet = maps.Clone(t.readSet)
			c.writeSet = maps.Clone(t.writeSet)
			c.writeVals = maps.Clone(t.writeVals)
			c.setCount = append([]uint16(nil), t.setCount...)
		}
		sn.cores[i] = c
	}
	return sn
}

// Restore returns the system to the snapshot's state, whatever it ran
// since: a restored system continues exactly as the one the snapshot
// was taken from. The stream position is just set: the next draw reads
// the memo, and only one past the memo seeds a generator and skips to it
// (see System.generate).
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
		if t.readSet == nil {
			t.readSet = make(map[uint64]struct{}, len(c.readSet))
			t.writeSet = make(map[uint64]struct{}, len(c.writeSet))
			t.writeVals = make(map[uint64]uint64, len(c.writeVals))
		} else {
			clear(t.readSet)
			clear(t.writeSet)
			clear(t.writeVals)
		}
		maps.Copy(t.readSet, c.readSet)
		maps.Copy(t.writeSet, c.writeSet)
		maps.Copy(t.writeVals, c.writeVals)
		t.setCount = append(t.setCount[:0], c.setCount...)
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
		if t.active && !(maps.Equal(t.readSet, c.readSet) && maps.Equal(t.writeSet, c.writeSet) &&
			maps.Equal(t.writeVals, c.writeVals)) {
			return false // setCount is a function of readSet
		}
	}
	return true
}

func (s *Stats) equal(o Stats) bool {
	return s.Started == o.Started && s.Committed == o.Committed &&
		s.FallbackRuns == o.FallbackRuns && s.TxCycles == o.TxCycles &&
		s.WastedCycles == o.WastedCycles && s.MaxWriteSet == o.MaxWriteSet &&
		s.MaxReadSet == o.MaxReadSet && maps.Equal(s.Aborted, o.Aborted)
}
