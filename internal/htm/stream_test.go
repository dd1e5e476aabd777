package htm

import (
	"fmt"
	"math/rand"
	"testing"
)

// refStream is the stream's definition: draw i is the i-th Intn of a
// freshly seeded math/rand source.
type refStream struct {
	rng  *rand.Rand
	vals []uint64
}

func (r *refStream) at(i uint64) uint64 {
	for uint64(len(r.vals)) <= i {
		r.vals = append(r.vals, uint64(r.rng.Intn(1_000_000)))
	}
	return r.vals[i]
}

// TestStreamMatchesMathRand drives draw / Reset / Snapshot / Restore in
// seeded random interleavings, with stream positions before, at and past
// the memo bound, and checks every draw against a fresh math/rand source
// — on the system that took the snapshots and on a second one that only
// ever restores them (its memo grows from skips, not from its own runs).
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 20160418} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		ref := &refStream{rng: rand.New(rand.NewSource(seed))}
		a, b := NewSystem(1, cfg), NewSystem(1, cfg)
		var snaps []*Snapshot
		script := rand.New(rand.NewSource(seed ^ 0x51ab))

		check := func(s *System, n uint64, what string) {
			t.Helper()
			for ; n > 0; n-- {
				pos := s.draws
				if got, want := s.draw(), ref.at(pos); got != want {
					t.Fatalf("seed %d, %s: draw %d = %d, want %d", seed, what, pos, got, want)
				}
			}
		}
		// Straight through the bound first, snapshotting around it.
		for _, n := range []uint64{0, 1, MemoDraws - 2, 1, 1, 1, 5000} {
			check(a, n, "first pass")
			snaps = append(snaps, a.Snapshot())
		}
		// Backwards from past the bound into the memo, and on.
		a.Restore(snaps[1])
		check(a, 3, "restored backwards")

		for step := 0; step < 300; step++ {
			what := fmt.Sprintf("step %d", step)
			switch script.Intn(5) {
			case 0:
				a.Reset()
				check(a, uint64(script.Intn(300)), what+" after Reset")
			case 1:
				snaps = append(snaps, a.Snapshot())
			case 2:
				sn := snaps[script.Intn(len(snaps))]
				a.Restore(sn)
				if a.draws != sn.draws {
					t.Fatalf("seed %d, %s: position %d after Restore, want %d", seed, what, a.draws, sn.draws)
				}
				check(a, uint64(script.Intn(2000)), what+" after Restore")
			case 3:
				sn := snaps[script.Intn(len(snaps))]
				b.Restore(sn)
				check(b, uint64(script.Intn(50)), what+" restore-only system")
			case 4:
				check(a, uint64(script.Intn(4000)), what)
			}
		}
		if a.memoLen != MemoDraws || b.memoLen > MemoDraws || len(a.memo) != MemoDraws/memoPage {
			t.Fatalf("seed %d: memo lengths %d and %d in %d pages, want %d and at most that", seed, a.memoLen, b.memoLen, len(a.memo), MemoDraws)
		}
	}
}

// TestResetDoesNotReseed: a warm system's run inside the memo touches
// the generator not at all, which is the point of the memo.
func TestResetDoesNotReseed(t *testing.T) {
	s := NewSystem(1, DefaultConfig())
	if s.rng != nil {
		t.Fatal("NewSystem seeded the generator before any draw")
	}
	for i := 0; i < 100; i++ {
		s.draw()
	}
	pos := s.rngPos
	sn := s.Snapshot()
	s.Reset()
	for i := 0; i < 100; i++ {
		s.draw()
	}
	s.Restore(sn)
	if s.rngPos != pos {
		t.Fatalf("generator advanced from %d to %d replaying memoized draws", pos, s.rngPos)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.draw()
	}); n > 1 { // the Stats.Aborted map
		t.Fatalf("Reset + draw allocates %v objects, want at most 1", n)
	}
}

// TestStatsSurviveReset: finished runs hand Stats out by value, so the
// Aborted map of a copy must not change when the system runs again.
func TestStatsSurviveReset(t *testing.T) {
	s := NewSystem(1, quietConfig())
	s.Begin(0, 0)
	s.Abort(0, 5, CauseExplicit)
	s.Begin(0, 10)
	s.Abort(0, 15, CauseExplicit)
	held := s.Stats
	sn := s.Snapshot()

	s.Reset()
	s.Begin(0, 0)
	s.Abort(0, 1, CauseConflict)
	if held.Aborted[CauseExplicit] != 2 || len(held.Aborted) != 1 {
		t.Fatalf("Stats taken before Reset changed under the next run: %v", held.Aborted)
	}
	s.Restore(sn)
	s.Begin(0, 20)
	s.Abort(0, 21, CauseExplicit)
	if held.Aborted[CauseExplicit] != 2 || sn.stats.Aborted[CauseExplicit] != 2 {
		t.Fatalf("a run after Restore wrote through to held stats %v / snapshot %v", held.Aborted, sn.stats.Aborted)
	}
}

// oldCheckDuration is the duration check as it was written before it
// became one compare: the reference for TestCheckDurationMatchesOldFormula.
func oldCheckDuration(cfg Config, start, cycle uint64) bool {
	if cfg.SuspendOnInterrupt {
		return false
	}
	if cfg.MaxCycles > 0 && cycle-start > cfg.MaxCycles {
		return true
	}
	if p := cfg.InterruptPeriod; p > 0 {
		return start/p != cycle/p
	}
	return false
}

func TestCheckDurationMatchesOldFormula(t *testing.T) {
	def := DefaultConfig()
	bounds := []uint64{0, 1, 7, 500, def.MaxCycles}
	periods := []uint64{0, 1, 100, def.InterruptPeriod}
	starts := []uint64{0, 1, 99, 100, 101, 499, 500, 999_999, 1_000_000, 1_000_001, 2_999_950}
	deltas := []int64{-1_000_001, -101, -100, -1, 0, 1, 6, 7, 8, 99, 100, 101, 499, 500, 501,
		999_999, 1_000_000, 1_000_001, 2_000_000}
	n := 0
	for _, suspend := range []bool{false, true} {
		for _, max := range bounds {
			for _, p := range periods {
				cfg := quietConfig()
				cfg.MaxCycles, cfg.InterruptPeriod, cfg.SuspendOnInterrupt = max, p, suspend
				s := NewSystem(1, cfg)
				for _, start := range starts {
					// Every cycle around the period boundaries next to start as well.
					cycles := []uint64{}
					for _, d := range deltas {
						if d >= 0 || uint64(-d) <= start {
							cycles = append(cycles, start+uint64(d))
						}
					}
					if p > 1 {
						next := start - start%p + p
						cycles = append(cycles, next-1, next, next+1, start-start%p)
					}
					for _, cycle := range cycles {
						s.Begin(0, start)
						s.Tick(0, cycle)
						got, want := s.Doomed(0) != CauseNone, oldCheckDuration(cfg, start, cycle)
						if got != want || (got && s.Doomed(0) != CauseOther) {
							t.Fatalf("MaxCycles %d period %d suspend %v: tx from %d at cycle %d doomed=%v (%v), old formula %v",
								max, p, suspend, start, cycle, got, s.Doomed(0), want)
						}
						// A restored transaction carries the same deadline.
						sn := s.Snapshot()
						s.Abort(0, cycle, CauseNone)
						if !got {
							s.Restore(sn)
							s.Tick(0, cycle+p)
							if (s.Doomed(0) != CauseNone) != oldCheckDuration(cfg, start, cycle+p) {
								t.Fatalf("MaxCycles %d period %d: restored tx from %d at cycle %d disagrees with the old formula",
									max, p, start, cycle+p)
							}
							s.Abort(0, cycle, CauseNone)
						}
						n++
					}
				}
			}
		}
	}
	if n < 5000 {
		t.Fatalf("only %d cases", n)
	}
}
