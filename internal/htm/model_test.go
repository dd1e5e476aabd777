package htm

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// model is the reference the table-backed System is tested against: the
// same architecture written the obvious way, with Go maps for the sets,
// the duration check spelled out (oldCheckDuration) and the
// spontaneous-abort stream read from refStream by position.
type model struct {
	cfg    Config
	cores  []modelTx
	stats  Stats
	draws  uint64
	stream *refStream
}

type modelTx struct {
	active     bool
	doomed     Cause
	startCycle uint64
	readSet    map[uint64]bool
	writeSet   map[uint64]bool
	writeVals  map[uint64]uint64
	setCount   map[uint64]int
}

func newModel(ncores int, cfg Config) *model {
	return &model{cfg: cfg, cores: make([]modelTx, ncores),
		stream: &refStream{rng: rand.New(rand.NewSource(cfg.Seed))}}
}

func (m *model) draw() uint64 {
	m.draws++
	return m.stream.at(m.draws - 1)
}

func (m *model) reset() {
	for i := range m.cores {
		m.cores[i] = modelTx{}
	}
	m.stats, m.draws = Stats{}, 0
}

func (m *model) begin(core int, cycle uint64) {
	m.cores[core] = modelTx{active: true, startCycle: cycle, readSet: map[uint64]bool{},
		writeSet: map[uint64]bool{}, writeVals: map[uint64]uint64{}, setCount: map[uint64]int{}}
	m.stats.Started++
}

func (m *model) doom(core int, c Cause) {
	if t := &m.cores[core]; t.active && t.doomed == CauseNone {
		t.doomed = c
	}
}

func (m *model) tick(core int, cycle uint64) {
	if t := &m.cores[core]; t.active && oldCheckDuration(m.cfg, t.startCycle, cycle) {
		m.doom(core, CauseOther)
	}
}

func (m *model) abort(core int, cycle uint64, c Cause) {
	t := &m.cores[core]
	if t.doomed != CauseNone {
		c = t.doomed
	}
	if m.stats.Aborted == nil { // no map before a run's first abort
		m.stats.Aborted = map[Cause]uint64{}
	}
	m.stats.Aborted[c]++
	m.stats.WastedCycles += cycle - t.startCycle
	t.active, t.doomed = false, CauseNone
}

func (m *model) commit(core int, cycle uint64) (map[uint64]uint64, Cause, bool) {
	m.tick(core, cycle)
	t := &m.cores[core]
	if c := t.doomed; c != CauseNone {
		m.abort(core, cycle, c)
		return nil, c, false
	}
	m.stats.Committed++
	m.stats.TxCycles += cycle - t.startCycle
	t.active = false
	return t.writeVals, CauseNone, true
}

func (m *model) sibling(core int) *modelTx {
	if sib := core ^ 1; m.cfg.HyperThreading && sib < len(m.cores) {
		return &m.cores[sib]
	}
	return nil
}

func (m *model) spontaneous(core int) {
	if p := m.cfg.SpontaneousPerAccessMicro; p > 0 && m.draw() < p {
		m.doom(core, CauseOther)
	}
}

func (m *model) read(core int, addr, cycle uint64) (uint64, bool) {
	line := Line(addr)
	for i := range m.cores {
		if i != core && m.cores[i].active && m.cores[i].writeSet[line] {
			m.doom(i, CauseConflict)
		}
	}
	t := &m.cores[core]
	if !t.active {
		return 0, false
	}
	m.tick(core, cycle)
	m.spontaneous(core)
	if !m.cfg.RollbackOnly {
		sib := m.sibling(core)
		if !t.readSet[line] {
			t.readSet[line] = true
			if m.cfg.L1Sets > 0 {
				set := line % uint64(m.cfg.L1Sets)
				t.setCount[set]++
				ways := m.cfg.L1Ways
				if sib != nil {
					ways /= 2
				}
				ways = max(ways, 1)
				if n := t.setCount[set]; n > ways && m.draw() < m.cfg.L1EvictAbortMicro*uint64(n-ways) {
					m.doom(core, CauseCapacity)
				}
			}
		}
		m.stats.MaxReadSet = max(m.stats.MaxReadSet, len(t.readSet))
		limit := m.cfg.ReadSetLines
		if sib != nil {
			limit /= 2
			if sib.active {
				limit -= len(sib.readSet)
			}
		}
		if len(t.readSet) > max(limit, 1) {
			m.doom(core, CauseCapacity)
		}
	}
	v, ok := t.writeVals[addr]
	return v, ok
}

func (m *model) write(core int, addr, val, cycle uint64) bool {
	line := Line(addr)
	for i := range m.cores {
		if o := &m.cores[i]; i != core && o.active && (o.writeSet[line] || o.readSet[line]) {
			m.doom(i, CauseConflict)
		}
	}
	t := &m.cores[core]
	if !t.active {
		return false
	}
	m.tick(core, cycle)
	m.spontaneous(core)
	grew := !t.writeSet[line]
	t.writeSet[line] = true
	t.writeVals[addr] = val
	n := len(t.writeSet)
	m.stats.MaxWriteSet = max(m.stats.MaxWriteSet, n)
	if grew {
		limit := m.cfg.WriteSetLines
		if sib := m.sibling(core); sib != nil {
			if sib.active {
				limit -= len(sib.writeSet) + len(sib.readSet)/8
			}
			limit /= 2
		}
		limit = max(limit, 1)
		switch {
		case n <= limit:
		case n > 2*limit:
			m.doom(core, CauseCapacity)
		case m.cfg.WriteEvictAbortMicro > 0 && m.draw() < m.cfg.WriteEvictAbortMicro*uint64(n-limit):
			m.doom(core, CauseCapacity)
		}
	}
	return true
}

// modelSnap is a deep copy of a model's state.
type modelSnap struct {
	cores []modelTx
	stats Stats
	draws uint64
}

func (m *model) snapshot() modelSnap {
	s := modelSnap{cores: make([]modelTx, len(m.cores)), stats: m.stats, draws: m.draws}
	s.stats.Aborted = maps.Clone(m.stats.Aborted)
	for i, t := range m.cores {
		t.readSet, t.writeSet = maps.Clone(t.readSet), maps.Clone(t.writeSet)
		t.writeVals, t.setCount = maps.Clone(t.writeVals), maps.Clone(t.setCount)
		s.cores[i] = t
	}
	return s
}

func (m *model) restore(s modelSnap) {
	c := (&model{cores: s.cores, stats: s.stats}).snapshot() // a copy the run may change
	m.cores, m.stats, m.draws = c.cores, c.stats, s.draws
}

// equal reports whether the model is in the snapshot's state. As in
// System.Equal, the sets of a closed transaction are dead state.
func (m *model) equal(s modelSnap) bool {
	if m.draws != s.draws || !reflect.DeepEqual(m.stats, s.stats) {
		return false
	}
	for i := range m.cores {
		a, b := m.cores[i], s.cores[i]
		if a.active != b.active || a.doomed != b.doomed || a.startCycle != b.startCycle ||
			a.active && !(maps.Equal(a.readSet, b.readSet) && maps.Equal(a.writeSet, b.writeSet) && maps.Equal(a.writeVals, b.writeVals)) {
			return false
		}
	}
	return true
}

// TestSystemMatchesMapModel drives the System and the model with one
// random script per (configuration, core count, seed) and compares every
// return value, every core's doom, the set sizes, Stats, the stream
// position and the verdict of Equal after every step.
func TestSystemMatchesMapModel(t *testing.T) {
	configs := map[string]func(*Config){
		"default":  func(c *Config) {},
		"noisy":    func(c *Config) { c.SpontaneousPerAccessMicro = 20_000; c.L1EvictAbortMicro = 200_000 },
		"tiny":     func(c *Config) { c.WriteSetLines, c.ReadSetLines, c.WriteEvictAbortMicro = 6, 24, 150_000 },
		"ht":       func(c *Config) { c.HyperThreading = true; c.WriteSetLines, c.ReadSetLines = 40, 96 },
		"rollback": func(c *Config) { c.RollbackOnly = true; c.WriteSetLines = 12 },
		"timer":    func(c *Config) { c.MaxCycles, c.InterruptPeriod = 700, 1000 },
	}
	var grown, over, wrapped bool
	for name, tweak := range configs {
		for ncores := 1; ncores <= 4; ncores++ {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := DefaultConfig()
				cfg.Seed = seed
				tweak(&cfg)
				g, o, w := runModelScript(t, fmt.Sprintf("%s/%d cores/seed %d", name, ncores, seed), ncores, cfg)
				grown, over, wrapped = grown || g, over || o, wrapped || w
			}
		}
	}
	if !grown || !over || !wrapped {
		t.Fatalf("scripts never grew a table past its first size (%v), never passed 2×WriteSetLines (%v) or never wrapped an epoch (%v)",
			grown, over, wrapped)
	}
}

func runModelScript(t *testing.T, name string, ncores int, cfg Config) (grown, over, wrapped bool) {
	t.Helper()
	sys, ref := NewSystem(ncores, cfg), newModel(ncores, cfg)
	script := rand.New(rand.NewSource(cfg.Seed*977 + int64(ncores)))
	type pair struct {
		sys *Snapshot
		ref modelSnap
	}
	snaps := []pair{{sys.Snapshot(), ref.snapshot()}}
	cycle := uint64(0)
	// Addresses: a few hot lines shared by all cores (conflicts), a strided
	// region that piles lines into one L1 set, and a wide private region.
	addr := func(core int) uint64 {
		switch script.Intn(4) {
		case 0:
			return 0x1000 + 8*uint64(script.Intn(32))
		case 1:
			return 0x100000 + 64*uint64(cfg.L1Sets)*uint64(script.Intn(40))
		default:
			return 0x200000 + 0x100000*uint64(core) + 8*uint64(script.Intn(8192))
		}
	}
	for step := 0; step < 3000; step++ {
		what := fmt.Sprintf("%s step %d", name, step)
		core := script.Intn(ncores)
		cycle += uint64(script.Intn(40))
		switch op := script.Intn(100); {
		case op < 12 && !sys.InTx(core):
			if script.Intn(8) == 0 {
				// White box: the next reset of this core's tables wraps.
				tx := &sys.cores[core]
				tx.readSet.epoch, tx.writeSet.epoch, tx.writeVals.epoch = math.MaxUint32, math.MaxUint32, math.MaxUint32
				wrapped = true
			}
			sys.Begin(core, cycle)
			ref.begin(core, cycle)
		case op < 45:
			a := addr(core)
			gv, gb := sys.Read(core, a, cycle)
			wv, wb := ref.read(core, a, cycle)
			if gv != wv || gb != wb {
				t.Fatalf("%s: Read(%d, %#x) = %d, %v; model %d, %v", what, core, a, gv, gb, wv, wb)
			}
		case op < 75:
			a, v := addr(core), script.Uint64()
			if g, w := sys.Write(core, a, v, cycle), ref.write(core, a, v, cycle); g != w {
				t.Fatalf("%s: Write(%d, %#x) buffered %v, model %v", what, core, a, g, w)
			}
		case op < 78 && sys.InTx(core):
			// A burst of writes to distinct lines: past the first table
			// size, and in a doomed transaction past twice the capacity.
			base := 0x800000 + 0x100000*uint64(core)
			for i := uint64(0); i < 700; i++ {
				if g, w := sys.Write(core, base+64*i, i, cycle), ref.write(core, base+64*i, i, cycle); g != w {
					t.Fatalf("%s: burst write %d buffered %v, model %v", what, i, g, w)
				}
			}
			grown = grown || sys.cores[core].writeSet.len() > tableMinSlots/2
			over = over || sys.cores[core].writeSet.len() > 2*cfg.WriteSetLines
		case op < 84 && sys.InTx(core):
			got := map[uint64]uint64{}
			gc, gok := sys.Commit(core, cycle, func(a, v uint64) { got[a] = v })
			want, wc, wok := ref.commit(core, cycle)
			if gc != wc || gok != wok || gok && !maps.Equal(got, want) {
				t.Fatalf("%s: Commit(%d) = %v, %v applying %d words; model %v, %v applying %d", what, core, gc, gok, len(got), wc, wok, len(want))
			}
		case op < 88 && sys.InTx(core) && (sys.Doomed(core) != CauseNone || script.Intn(4) == 0):
			sys.Abort(core, cycle, CauseExplicit)
			ref.abort(core, cycle, CauseExplicit)
		case op < 90:
			sys.Unfriendly(core)
			ref.doom(core, CauseOther)
		case op < 93:
			sys.Tick(core, cycle)
			ref.tick(core, cycle)
		case op < 96:
			snaps = append(snaps, pair{sys.Snapshot(), ref.snapshot()})
		case op < 99:
			p := snaps[script.Intn(len(snaps))]
			sys.Restore(p.sys)
			ref.restore(p.ref)
		case op == 99:
			sys.Reset()
			ref.reset()
			cycle = 0
		}
		for c := 0; c < ncores; c++ {
			mt := &ref.cores[c]
			if sys.InTx(c) != mt.active || sys.Doomed(c) != mt.doomed {
				t.Fatalf("%s: core %d active %v doomed %v, model %v %v", what, c, sys.InTx(c), sys.Doomed(c), mt.active, mt.doomed)
			}
			if mt.active && (sys.cores[c].readSet.len() != len(mt.readSet) || sys.cores[c].writeSet.len() != len(mt.writeSet)) {
				t.Fatalf("%s: core %d holds %d read and %d written lines, model %d and %d",
					what, c, sys.cores[c].readSet.len(), sys.cores[c].writeSet.len(), len(mt.readSet), len(mt.writeSet))
			}
		}
		if !reflect.DeepEqual(sys.Stats, ref.stats) || sys.Draws() != ref.draws {
			t.Fatalf("%s: stats %+v after %d draws, model %+v after %d", what, sys.Stats, sys.Draws(), ref.stats, ref.draws)
		}
		if p := snaps[script.Intn(len(snaps))]; sys.Equal(p.sys) != ref.equal(p.ref) {
			t.Fatalf("%s: Equal(snapshot) = %v, model %v", what, sys.Equal(p.sys), ref.equal(p.ref))
		}
	}
	return grown, over, wrapped
}

// TestCommitAppliesInProgramOrder: the write buffer reaches memory in
// the order its words were first written — the same order in every run,
// after a table has grown and after Snapshot/Restore — and a rewritten
// word keeps its place.
func TestCommitAppliesInProgramOrder(t *testing.T) {
	s := NewSystem(1, quietConfig())
	var want []entry
	s.Begin(0, 0)
	for i := uint64(0); i < 3*tableMinSlots; i++ {
		a := 0x4000 + 8*(i*7919%1024)
		s.Write(0, a, i, 1)
		want = append(want, entry{a, i})
	}
	s.Write(0, want[5].key, 99, 2)
	want[5].val = 99

	check := func(s *System, what string) {
		t.Helper()
		n := 0
		_, ok := s.Commit(0, 3, func(a, v uint64) {
			if n < len(want) && want[n] != (entry{a, v}) {
				t.Fatalf("%s: store %d is %#x = %d, want %#x = %d", what, n, a, v, want[n].key, want[n].val)
			}
			n++
		})
		if !ok || n != len(want) {
			t.Fatalf("%s: committed %v with %d stores, want %d", what, ok, n, len(want))
		}
	}
	sn := s.Snapshot()
	check(s, "commit")
	fresh := NewSystem(1, quietConfig())
	fresh.Restore(sn)
	check(fresh, "commit after Restore")
}
