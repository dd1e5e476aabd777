package htm

import "testing"

func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.SpontaneousPerAccessMicro = 0
	cfg.InterruptPeriod = 0
	return cfg
}

func TestCommitAppliesWrites(t *testing.T) {
	s := NewSystem(2, quietConfig())
	s.Begin(0, 100)
	if !s.InTx(0) || s.InTx(1) {
		t.Fatal("InTx wrong after Begin")
	}
	if buf := s.Write(0, 0x1000, 42, 101); !buf {
		t.Fatal("transactional write not buffered")
	}
	if v, buf := s.Read(0, 0x1000, 102); !buf || v != 42 {
		t.Fatalf("read-own-write = (%d,%v), want (42,true)", v, buf)
	}
	applied := map[uint64]uint64{}
	cause, ok := s.Commit(0, 200, func(a, v uint64) { applied[a] = v })
	if !ok || cause != CauseNone {
		t.Fatalf("commit failed: %v", cause)
	}
	if applied[0x1000] != 42 {
		t.Fatalf("write not applied: %v", applied)
	}
	if s.Stats.Committed != 1 || s.Stats.TxCycles != 100 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := NewSystem(1, quietConfig())
	s.Begin(0, 0)
	s.Write(0, 0x1000, 42, 1)
	s.Abort(0, 10, CauseExplicit)
	if s.InTx(0) {
		t.Fatal("still in tx after abort")
	}
	if s.Stats.Aborted[CauseExplicit] != 1 {
		t.Fatalf("abort stats: %v", s.Stats.Aborted)
	}
	// A new transaction must not see the discarded write.
	s.Begin(0, 20)
	if v, buf := s.Read(0, 0x1000, 21); buf {
		t.Fatalf("stale buffered value %d visible after abort", v)
	}
}

func TestWriteWriteConflictRequesterWins(t *testing.T) {
	s := NewSystem(2, quietConfig())
	s.Begin(0, 0)
	s.Begin(1, 0)
	s.Write(0, 0x2000, 1, 1)
	// Core 1 writes the same line: core 0 (the holder) must be doomed.
	s.Write(1, 0x2008, 2, 2)
	if s.Doomed(0) != CauseConflict {
		t.Fatalf("core 0 doom = %v, want conflict", s.Doomed(0))
	}
	if s.Doomed(1) != CauseNone {
		t.Fatalf("core 1 doom = %v, want none", s.Doomed(1))
	}
	// Core 0's commit must fail and report the conflict.
	cause, ok := s.Commit(0, 10, func(a, v uint64) { t.Fatal("doomed tx applied writes") })
	if ok || cause != CauseConflict {
		t.Fatalf("commit = (%v,%v)", cause, ok)
	}
	if _, ok := s.Commit(1, 10, func(a, v uint64) {}); !ok {
		t.Fatal("winner failed to commit")
	}
}

func TestReadWriteConflict(t *testing.T) {
	s := NewSystem(2, quietConfig())
	s.Begin(0, 0)
	s.Read(0, 0x3000, 1)
	// A remote write to a read-set line dooms the reader.
	s.Begin(1, 0)
	s.Write(1, 0x3000, 9, 2)
	if s.Doomed(0) != CauseConflict {
		t.Fatalf("reader doom = %v, want conflict", s.Doomed(0))
	}
	// But a remote read of a read-set line is fine (S/S sharing).
	s.Abort(0, 3, CauseConflict)
	s.Begin(0, 4)
	s.Read(0, 0x4000, 5)
	s.Read(1, 0x4000, 6)
	if s.Doomed(0) != CauseNone {
		t.Fatal("read-read sharing should not conflict")
	}
}

func TestNonTxWriteDoomsTransactions(t *testing.T) {
	s := NewSystem(2, quietConfig())
	s.Begin(0, 0)
	s.Read(0, 0x5000, 1)
	// Core 1 is NOT in a transaction; its write still dooms core 0.
	if buf := s.Write(1, 0x5000, 7, 2); buf {
		t.Fatal("non-transactional write reported buffered")
	}
	if s.Doomed(0) != CauseConflict {
		t.Fatalf("doom = %v, want conflict", s.Doomed(0))
	}
}

func TestNonTxReadDoomsWriter(t *testing.T) {
	s := NewSystem(2, quietConfig())
	s.Begin(0, 0)
	s.Write(0, 0x6000, 5, 1)
	if _, buf := s.Read(1, 0x6000, 2); buf {
		t.Fatal("non-tx read got buffered value from other core")
	}
	if s.Doomed(0) != CauseConflict {
		t.Fatalf("doom = %v, want conflict", s.Doomed(0))
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	cfg := quietConfig()
	cfg.WriteSetLines = 4
	s := NewSystem(1, cfg)
	s.Begin(0, 0)
	// Past twice the threshold the abort is certain.
	for i := 0; i < 9; i++ {
		s.Write(0, uint64(0x1000+i*CacheLineBytes), 1, uint64(i))
	}
	if s.Doomed(0) != CauseCapacity {
		t.Fatalf("doom = %v, want capacity", s.Doomed(0))
	}
	// Writes within one line consume one entry only.
	s.Abort(0, 9, CauseCapacity)
	s.Begin(0, 10)
	for i := 0; i < 16; i++ {
		s.Write(0, uint64(0x1000+i*8), 1, uint64(10+i)) // two lines total
	}
	if s.Doomed(0) != CauseNone {
		t.Fatalf("line-granularity write set aborted early: %d lines", s.cores[0].writeSet.len())
	}
}

func TestReadCapacityAbort(t *testing.T) {
	cfg := quietConfig()
	cfg.ReadSetLines = 8
	s := NewSystem(1, cfg)
	s.Begin(0, 0)
	for i := 0; i < 9; i++ {
		s.Read(0, uint64(0x1000+i*CacheLineBytes), uint64(i))
	}
	if s.Doomed(0) != CauseCapacity {
		t.Fatalf("doom = %v, want capacity", s.Doomed(0))
	}
}

func TestInterruptAbortsLongTransaction(t *testing.T) {
	cfg := quietConfig()
	cfg.InterruptPeriod = 1000
	s := NewSystem(1, cfg)
	s.Begin(0, 900)
	s.Tick(0, 950)
	if s.Doomed(0) != CauseNone {
		t.Fatal("doomed before interrupt boundary")
	}
	s.Tick(0, 1100) // crosses the interrupt at cycle 1000
	if s.Doomed(0) != CauseOther {
		t.Fatalf("doom = %v, want other (timer interrupt)", s.Doomed(0))
	}
}

func TestDurationBound(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxCycles = 500
	s := NewSystem(1, cfg)
	s.Begin(0, 0)
	s.Tick(0, 501)
	if s.Doomed(0) != CauseOther {
		t.Fatalf("doom = %v, want other (duration)", s.Doomed(0))
	}
}

func TestUnfriendlyDoomsTx(t *testing.T) {
	s := NewSystem(1, quietConfig())
	s.Begin(0, 0)
	s.Unfriendly(0)
	if s.Doomed(0) != CauseOther {
		t.Fatalf("doom = %v, want other", s.Doomed(0))
	}
	// Outside a transaction, unfriendly ops are no-ops.
	s.Abort(0, 1, CauseOther)
	s.Unfriendly(0)
}

func TestHyperThreadingShrinksCapacity(t *testing.T) {
	cfg := quietConfig()
	cfg.WriteSetLines = 64
	cfg.HyperThreading = true
	s := NewSystem(2, cfg)
	s.Begin(0, 0)
	// With HT, capacity is at most half (32); 65 lines exceed twice
	// the effective threshold and must abort even with an idle
	// sibling.
	for i := 0; i < 65; i++ {
		s.Write(0, uint64(0x1000+i*CacheLineBytes), 1, uint64(i))
	}
	if s.Doomed(0) != CauseCapacity {
		t.Fatalf("doom = %v, want capacity under HT", s.Doomed(0))
	}

	// Without HT the same footprint stays close to the threshold and
	// survives (eviction aborts are probabilistic near the edge).
	cfg.HyperThreading = false
	cfg.WriteEvictAbortMicro = 0
	s2 := NewSystem(2, cfg)
	s2.Begin(0, 0)
	for i := 0; i < 65; i++ {
		s2.Write(0, uint64(0x1000+i*CacheLineBytes), 1, uint64(i))
	}
	if s2.Doomed(0) != CauseNone {
		t.Fatal("non-HT run aborted unexpectedly")
	}
}

func TestAbortRateAndCauseShare(t *testing.T) {
	s := NewSystem(1, quietConfig())
	for i := 0; i < 3; i++ {
		s.Begin(0, 0)
		s.Commit(0, 1, func(a, v uint64) {})
	}
	s.Begin(0, 0)
	s.Abort(0, 1, CauseExplicit)
	if got := s.Stats.AbortRate(); got != 25 {
		t.Fatalf("AbortRate = %v, want 25", got)
	}
	if got := s.Stats.CauseShare(CauseExplicit); got != 100 {
		t.Fatalf("CauseShare(explicit) = %v, want 100", got)
	}
}

func TestSpontaneousAbortsHappen(t *testing.T) {
	cfg := quietConfig()
	cfg.SpontaneousPerAccessMicro = 100_000 // 10% per access
	s := NewSystem(1, cfg)
	doomed := 0
	for trial := 0; trial < 100; trial++ {
		s.Begin(0, 0)
		for i := 0; i < 10 && s.Doomed(0) == CauseNone; i++ {
			s.Write(0, 0x1000, 1, uint64(i))
		}
		if s.Doomed(0) == CauseOther {
			doomed++
		}
		s.Abort(0, 20, CauseNone)
	}
	if doomed < 30 {
		t.Fatalf("spontaneous aborts = %d/100, expected many", doomed)
	}
}

func TestRollbackOnlyIgnoresReadConflicts(t *testing.T) {
	cfg := quietConfig()
	cfg.RollbackOnly = true
	s := NewSystem(2, cfg)
	s.Begin(0, 0)
	s.Read(0, 0x3000, 1)
	// A remote write to a line we read must NOT doom us: reads are
	// untracked in rollback-only mode.
	s.Write(1, 0x3000, 9, 2)
	if s.Doomed(0) != CauseNone {
		t.Fatalf("rollback-only tx doomed by read conflict: %v", s.Doomed(0))
	}
	// Write-write conflicts are still detected.
	s.Write(0, 0x4000, 1, 3)
	s.Begin(1, 4)
	s.Write(1, 0x4000, 2, 5)
	if s.Doomed(0) != CauseConflict {
		t.Fatalf("write-write conflict missed: %v", s.Doomed(0))
	}
}

func TestRollbackOnlyNoReadCapacity(t *testing.T) {
	cfg := quietConfig()
	cfg.RollbackOnly = true
	cfg.ReadSetLines = 4
	s := NewSystem(1, cfg)
	s.Begin(0, 0)
	for i := 0; i < 100; i++ {
		s.Read(0, uint64(0x1000+i*CacheLineBytes), uint64(i))
	}
	if s.Doomed(0) != CauseNone {
		t.Fatalf("rollback-only tx hit read capacity: %v", s.Doomed(0))
	}
	// Read-own-write still works.
	s.Write(0, 0x9000, 42, 200)
	if v, buf := s.Read(0, 0x9000, 201); !buf || v != 42 {
		t.Fatalf("read-own-write broken: (%d,%v)", v, buf)
	}
}

func TestSuspendOnInterrupt(t *testing.T) {
	cfg := quietConfig()
	cfg.InterruptPeriod = 100
	cfg.SuspendOnInterrupt = true
	s := NewSystem(1, cfg)
	s.Begin(0, 50)
	s.Tick(0, 100000) // crosses many interrupts
	if s.Doomed(0) != CauseNone {
		t.Fatalf("suspended tx aborted on interrupt: %v", s.Doomed(0))
	}
	if _, ok := s.Commit(0, 100001, func(a, v uint64) {}); !ok {
		t.Fatal("suspended tx failed to commit")
	}
}

// drive performs a fixed pseudo-random access pattern on two cores with
// spontaneous aborts on, returning what the pattern observed: every
// abort cause depends on the position of the rng stream.
func drive(s *System, from, to int) []Cause {
	var seen []Cause
	for i := from; i < to; i++ {
		core := i % 2
		if !s.InTx(core) {
			s.Begin(core, uint64(i))
		}
		addr := uint64(0x1000 + 64*(i*7%90) + 4096*core)
		if i%3 == 0 {
			s.Write(core, addr, uint64(i), uint64(i))
		} else {
			s.Read(core, addr, uint64(i))
		}
		if c := s.Doomed(core); c != CauseNone {
			seen = append(seen, c)
			s.Abort(core, uint64(i), CauseNone)
		} else if i%17 == 0 {
			s.Commit(core, uint64(i), func(uint64, uint64) {})
		}
	}
	return seen
}

// TestSnapshotRestoreContinuesIdentically: a system restored to a
// snapshot — after running on, and from a fresh system — continues
// exactly like the snapshotted one, including the spontaneous-abort
// stream, and Equal tells the states apart.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpontaneousPerAccessMicro = 30_000
	const mid, end = 700, 2000

	a := NewSystem(2, cfg)
	drive(a, 0, mid)
	sn := a.Snapshot()
	if !a.InTx(0) && !a.InTx(1) {
		t.Fatal("snapshot not taken inside a transaction; the test would not cover the sets")
	}
	want := drive(a, mid, end)
	wantStats := a.Stats
	if len(want) < 10 {
		t.Fatalf("only %d aborts after the snapshot; the stream is not exercised", len(want))
	}
	if a.Equal(sn) {
		t.Fatal("system equals a snapshot it has run past")
	}

	for name, s := range map[string]*System{"same system": a, "fresh system": NewSystem(2, cfg)} {
		s.Restore(sn)
		if !s.Equal(sn) {
			t.Fatalf("%s: differs from the snapshot right after Restore", name)
		}
		got := drive(s, mid, end)
		if len(got) != len(want) {
			t.Fatalf("%s: %d aborts after Restore, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: abort %d is %v, want %v", name, i, got[i], want[i])
			}
		}
		if !s.Stats.equal(wantStats) {
			t.Fatalf("%s: stats %+v, want %+v", name, s.Stats, wantStats)
		}
	}

	// One more draw, one more buffered word: not equal any more.
	a.Restore(sn)
	a.draw()
	if a.Equal(sn) {
		t.Error("Equal missed an advanced rng stream")
	}
	a.Restore(sn)
	core := 0
	if !a.InTx(core) {
		core = 1
	}
	a.cores[core].writeVals.put(0x9000, 1)
	if a.Equal(sn) {
		t.Error("Equal missed a buffered write")
	}
}
