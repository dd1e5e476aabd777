package htm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// refStream is the stream's definition: draw i is the i-th Intn of a
// freshly seeded math/rand source.
type refStream struct {
	rng  *rand.Rand
	vals []uint64
}

func newRefStream(seed int64) *refStream {
	return &refStream{rng: rand.New(rand.NewSource(seed))}
}

func (r *refStream) at(i uint64) uint64 {
	for uint64(len(r.vals)) <= i {
		r.vals = append(r.vals, uint64(r.rng.Intn(1_000_000)))
	}
	return r.vals[i]
}

// forgetStream drops seed from the registry, so the next System of the
// seed starts a stream whose memo is empty.
func forgetStream(seed int64) {
	registry.Lock()
	defer registry.Unlock()
	kept := registry.kept[:0]
	for _, st := range registry.kept {
		if st.seed != seed {
			kept = append(kept, st)
		}
	}
	registry.kept = kept
}

// snapshotAt returns a snapshot of s moved to stream position pos, for a
// forward Restore to a position no System has drawn yet.
func snapshotAt(s *System, pos uint64) *Snapshot {
	sn := s.Snapshot()
	sn.draws = pos
	return sn
}

// checkDraws draws n times from s and compares each draw with the
// reference.
func checkDraws(t *testing.T, s *System, ref *refStream, n uint64, what string) {
	t.Helper()
	for ; n > 0; n-- {
		pos := s.draws
		if got, want := s.draw(), ref.at(pos); got != want {
			t.Fatalf("seed %d, %s: draw %d = %d, want %d", s.cfg.Seed, what, pos, got, want)
		}
	}
}

// TestStreamMatchesMathRand drives draw / Reset / Snapshot / Restore in
// seeded random interleavings on two Systems of one seed, with stream
// positions before, at and past the memo bound, and checks every draw
// against a fresh math/rand source. The second System only ever
// restores: forward into memo pages nobody has filled yet, backwards,
// and past the memo, where its private generator re-seeds.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 20160418} {
		forgetStream(seed)
		cfg := DefaultConfig()
		cfg.Seed = seed
		ref := newRefStream(seed)
		a, b := NewSystem(1, cfg), NewSystem(1, cfg)
		if a.stream != b.stream {
			t.Fatalf("seed %d: two Systems of one seed hold different streams", seed)
		}
		check := func(s *System, n uint64, what string) {
			t.Helper()
			checkDraws(t, s, ref, n, what)
		}
		// Forward into an empty memo, across a page boundary, then past
		// the bound and back.
		b.Restore(snapshotAt(b, MemoDraws/2-memoPage/2))
		check(b, memoPage, "forward into an empty memo")
		b.Restore(snapshotAt(b, MemoDraws+1000))
		check(b, 10, "forward past the memo")
		b.Restore(snapshotAt(b, MemoDraws+10))
		check(b, 10, "backwards past the memo")

		var snaps []*Snapshot
		script := rand.New(rand.NewSource(seed ^ 0x51ab))
		// Straight through the bound first, snapshotting around it.
		for _, n := range []uint64{0, 1, MemoDraws - 2, 1, 1, 1, 5000} {
			check(a, n, "first pass")
			snaps = append(snaps, a.Snapshot())
		}
		st := a.stream
		if st.filled != len(st.pages) || st.rng != nil {
			t.Fatalf("seed %d: %d of %d memo pages filled after a pass past the bound, generator released %v",
				seed, st.filled, len(st.pages), st.rng == nil)
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
	}
}

// TestStreamConcurrentSystems: four Systems of one seed, each on its
// own goroutine, read and fill an empty memo concurrently. The first
// starts at 0; each other one waits until the page it starts in is
// published, so its first draw reads a page another goroutine filled
// and may still be filling further pages. A page published before it
// is full fails the comparison, and under -race it is always reported.
func TestStreamConcurrentSystems(t *testing.T) {
	const seed = 4242
	forgetStream(seed)
	cfg := DefaultConfig()
	cfg.Seed = seed
	ref := newRefStream(seed)
	ref.at(MemoDraws + 2*memoPage) // read-only from here on
	var wg sync.WaitGroup
	var failed atomic.Bool // the goroutine that would fill a page may have stopped
	errs := make([]error, 4)
	for g := range errs {
		s := NewSystem(1, cfg)
		start := uint64(g) * (MemoDraws/4 + 37)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g > 0 && s.stream.pages[start/memoPage].Load() == nil {
				if failed.Load() {
					return
				}
				runtime.Gosched()
			}
			s.Restore(snapshotAt(s, start))
			for _, n := range []uint64{MemoDraws/4 + memoPage, 3 * memoPage} {
				for ; n > 0; n-- {
					pos := s.draws
					if got, want := s.draw(), ref.vals[pos]; got != want {
						errs[g] = fmt.Errorf("System %d from %d: draw %d = %d, want %d", g, start, pos, got, want)
						failed.Store(true)
						return
					}
				}
				s.Reset()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedMemoDrawsWithoutAllocation: once one System of a seed has
// filled the memo, a second one's runs inside it allocate nothing and
// never seed a generator of their own.
func TestSharedMemoDrawsWithoutAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 8086
	forgetStream(cfg.Seed)
	first := NewSystem(1, cfg)
	first.Restore(snapshotAt(first, MemoDraws-1))
	first.draw()

	s := NewSystem(1, cfg)
	if n := testing.AllocsPerRun(5, func() {
		s.draws = 0
		for i := 0; i < MemoDraws; i++ {
			s.draw()
		}
	}); n != 0 {
		t.Fatalf("a run through a full shared memo allocates %v objects, want 0", n)
	}
	if s.rng != nil {
		t.Fatal("a run inside the memo seeded the System's private generator")
	}
}

// TestResetDoesNotReseed: a warm system's run inside the memo leaves
// its private generator unseeded, which is the point of the memo.
func TestResetDoesNotReseed(t *testing.T) {
	s := NewSystem(1, DefaultConfig())
	for i := 0; i < 100; i++ {
		s.draw()
	}
	sn := s.Snapshot()
	s.Reset()
	for i := 0; i < 100; i++ {
		s.draw()
	}
	s.Restore(sn)
	s.draw()
	if s.rng != nil {
		t.Fatal("replaying memoized draws seeded the private generator")
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.draw()
	}); n != 0 { // a run without an abort makes no Stats.Aborted map
		t.Fatalf("Reset + draw allocates %v objects, want 0", n)
	}
}

// TestRegistryKeepsRecentSeeds: the registry keeps the streamsKept most
// recently requested seeds, and a System keeps the stream it was built
// with after the registry drops it.
func TestRegistryKeepsRecentSeeds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1 << 40
	old := NewSystem(1, cfg)
	for i := int64(1); i <= streamsKept; i++ {
		streamOf(cfg.Seed + i)
	}
	registry.Lock()
	n := len(registry.kept)
	registry.Unlock()
	if n != streamsKept {
		t.Fatalf("registry keeps %d streams, want %d", n, streamsKept)
	}
	if streamOf(cfg.Seed+1) != streamOf(cfg.Seed+1) {
		t.Fatal("two requests of a kept seed returned different streams")
	}
	if NewSystem(1, cfg).stream == old.stream {
		t.Fatal("a seed the registry dropped got its old stream back")
	}
	checkDraws(t, old, newRefStream(cfg.Seed), 2*memoPage, "System of a dropped stream")
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
