// Package htm simulates Intel Transactional Synchronization Extensions
// (TSX), specifically the Restricted Transactional Memory (RTM)
// interface that HAFT uses for fault recovery (§2.2 of the paper).
//
// The simulator models the architectural behaviors HAFT's recovery
// guarantees depend on:
//
//   - read- and write-sets tracked at 64-byte cache-line granularity,
//     backed by the L1 data cache;
//   - a hard write-set capacity (evicting a written line always aborts)
//     and a much larger read-set capacity;
//   - conflict detection against other transactions and against
//     non-transactional code, with "requester wins" semantics: the
//     transaction whose cache line is snooped away is the one that
//     aborts;
//   - periodic timer interrupts that abort any transaction spanning
//     them (the ~1M-cycle / 0.3 ms bound of §2.2);
//   - "unfriendly" instructions (system calls, I/O) and a residual
//     spontaneous-abort probability, both reported as "other" aborts;
//   - explicit aborts (XABORT), which is how a failed ILR check rolls
//     the program back;
//   - best-effort semantics: no transaction is guaranteed to commit,
//     so callers must implement a bounded-retry, non-transactional
//     fallback.
//
// Transactional data buffering is part of the model: writes performed
// inside a transaction are visible only to that core until commit.
// The simulator is memory-agnostic — it buffers (address, value) pairs
// and hands the write set to the caller at commit time.
package htm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// CacheLineBytes is the coherence granularity of read/write sets.
const CacheLineBytes = 64

// Line returns the cache line index of a byte address.
func Line(addr uint64) uint64 { return addr / CacheLineBytes }

// Cause classifies why a transaction aborted, following Table 3 of the
// paper (capacity / conflict / other) plus the explicit XABORT used by
// ILR fault detection.
type Cause uint8

const (
	CauseNone     Cause = iota
	CauseConflict       // data conflict with another core
	CauseCapacity       // write- or read-set overflow
	CauseExplicit       // XABORT (ILR detected a fault)
	CauseOther          // timer interrupt, unfriendly instruction, spontaneous
)

// String returns the cause name.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	case CauseOther:
		return "other"
	}
	return "cause?"
}

// Config holds the architectural parameters of the simulated part.
// The defaults correspond to the Haswell thresholds quoted in §2.2:
// >10% of transactions abort past a 16 KB write set, a 1024 KB read
// set, or ~1M cycles.
type Config struct {
	// WriteSetLines is the write-set capacity threshold (16 KB / 64 B
	// = 256 lines). §2.2 quotes 16 KB as the point past which >10% of
	// transactions abort, not a hard wall: beyond it, every additional
	// written line risks evicting a write-set line (which always
	// aborts) with probability WriteEvictAbortMicro (1e-6 units) per
	// line of overshoot; past twice the threshold the abort is
	// certain.
	WriteSetLines int
	// WriteEvictAbortMicro is the per-new-line abort probability
	// multiplier above the write-set threshold.
	WriteEvictAbortMicro uint64
	// ReadSetLines is the maximum number of distinct cache lines a
	// transaction may read. The architectural limit quoted in §2.2 is
	// 1024 KB, but read-set tracking beyond the L1 uses an imprecise
	// filter, and the paper observes frequent read-capacity aborts on
	// cache-unfriendly code (matrixmul, §5.4); the default models the
	// practical L2-resident bound of 128 KB (2048 lines).
	ReadSetLines int
	// MaxCycles bounds transaction duration; the next timer interrupt
	// aborts a transaction that spans it (~1M cycles ≈ 0.3 ms at 2 GHz;
	// the simulator uses the interrupt period directly).
	MaxCycles uint64
	// InterruptPeriod is the cycle distance between timer interrupts on
	// each core. A transaction overlapping an interrupt aborts with
	// CauseOther. 0 disables interrupts.
	InterruptPeriod uint64
	// SpontaneousPer1K is the probability (per 1000 accesses, scaled)
	// of a spontaneous abort, modeling TLB shootdowns, page faults and
	// microarchitectural events. Expressed as abort probability per
	// memory access in units of 1e-6.
	SpontaneousPerAccessMicro uint64
	// L1Sets and L1Ways model the L1 data cache geometry for read-set
	// tracking: reads are tracked precisely while resident in the L1;
	// once a transaction holds more read lines in one set than its
	// associativity, each further line added to that set evicts a
	// tracked line and aborts the transaction with probability
	// L1EvictAbortMicro (units of 1e-6). This is what makes strided,
	// cache-unfriendly access patterns (matrixmul's column walks)
	// capacity-bound even though their total footprint is far below
	// ReadSetLines, and why sharing the L1 under hyper-threading
	// (halved ways) blows their abort rate up (§5.4). L1Sets = 0
	// disables the geometry model.
	L1Sets            int
	L1Ways            int
	L1EvictAbortMicro uint64
	// RollbackOnly models IBM POWER8's rollback-only transactions,
	// which the paper's future work (§7) identifies as a better fit
	// for HAFT's recovery-only usage: stores are buffered and rolled
	// back as usual, but the read set is not tracked at all — no
	// read-set capacity limits and no aborts from remote writes to
	// lines this transaction has read. Write-write conflicts are still
	// detected, so atomic read-modify-writes remain correct for
	// data-race-free programs. Lock elision must not be combined with
	// this mode (elision relies on read-set conflict detection).
	RollbackOnly bool
	// SuspendOnInterrupt models POWER8's suspended transactions (§7):
	// timer interrupts suspend and resume the transaction instead of
	// aborting it, eliminating the duration-based "other" aborts.
	SuspendOnInterrupt bool
	// HyperThreading pairs logical cores (2i, 2i+1) on one physical
	// core so they share the L1: the effective write-set capacity of a
	// transaction shrinks by the sibling's resident footprint, the
	// per-set associativity available to each thread halves, and
	// sibling activity adds eviction pressure on the read set.
	HyperThreading bool
	// Seed makes spontaneous aborts reproducible.
	Seed int64
}

// DefaultConfig returns the Haswell-like parameters used throughout
// the evaluation.
func DefaultConfig() Config {
	return Config{
		WriteSetLines:             256,
		WriteEvictAbortMicro:      3,
		ReadSetLines:              2048,
		L1Sets:                    64,
		L1Ways:                    8,
		L1EvictAbortMicro:         3000,
		MaxCycles:                 1_000_000,
		InterruptPeriod:           1_000_000,
		SpontaneousPerAccessMicro: 2,
		Seed:                      1,
	}
}

// Stats aggregates transactional outcomes for one System.
type Stats struct {
	Started   uint64
	Committed uint64
	// Aborted counts aborts by cause; it is nil until the first one.
	Aborted map[Cause]uint64
	// FallbackRuns counts retry budgets that were exhausted, forcing
	// non-transactional execution.
	FallbackRuns uint64
	// TxCycles is the number of cycles spent inside transactions that
	// eventually committed (used for the §5.6 coverage metric).
	TxCycles uint64
	// WastedCycles is the number of cycles spent inside transactions
	// that aborted.
	WastedCycles uint64
	// MaxWriteSet / MaxReadSet record the largest observed footprints
	// (diagnostics).
	MaxWriteSet int
	MaxReadSet  int
}

// Merge folds another run's statistics into s — campaign engines use
// it to aggregate transactional activity across many independent runs
// (per fault model: how much recovery work the injections triggered).
func (s *Stats) Merge(o Stats) {
	s.Started += o.Started
	s.Committed += o.Committed
	s.FallbackRuns += o.FallbackRuns
	s.TxCycles += o.TxCycles
	s.WastedCycles += o.WastedCycles
	if o.MaxWriteSet > s.MaxWriteSet {
		s.MaxWriteSet = o.MaxWriteSet
	}
	if o.MaxReadSet > s.MaxReadSet {
		s.MaxReadSet = o.MaxReadSet
	}
	if len(o.Aborted) > 0 {
		if s.Aborted == nil {
			s.Aborted = make(map[Cause]uint64, len(o.Aborted))
		}
		for c, n := range o.Aborted {
			s.Aborted[c] += n
		}
	}
}

// AbortRate returns aborted/(aborted+committed) as a percentage.
func (s *Stats) AbortRate() float64 {
	var aborted uint64
	for _, n := range s.Aborted {
		aborted += n
	}
	total := aborted + s.Committed
	if total == 0 {
		return 0
	}
	return 100 * float64(aborted) / float64(total)
}

// CauseShare returns the percentage of aborts attributed to c.
func (s *Stats) CauseShare(c Cause) float64 {
	var aborted uint64
	for _, n := range s.Aborted {
		aborted += n
	}
	if aborted == 0 {
		return 0
	}
	return 100 * float64(s.Aborted[c]) / float64(aborted)
}

// tx is the per-core transactional state.
type tx struct {
	active     bool
	doomed     Cause
	readSet    table    // cache lines read
	writeSet   table    // cache lines written
	writeVals  table    // word address -> buffered value
	setCount   []uint16 // read lines per L1 set (geometry model)
	startCycle uint64
	// The duration check as one compare: the transaction is doomed at the
	// first cycle with cycle-durBase >= durSpan (unsigned). Both are
	// functions of startCycle and the configuration, see setDeadline.
	durBase, durSpan uint64
}

// System models the HTM of one multi-core processor.
type System struct {
	cfg   Config
	cores []tx
	// The spontaneous-abort stream is draw i of
	// rand.New(rand.NewSource(cfg.Seed)).Intn(1_000_000). draws is the
	// position of the next draw and all of the stream's state a run can
	// change: Reset zeroes it, Snapshot records it, Restore sets it.
	// stream is the seed's memo, shared with every System of the seed;
	// rng is the private generator for draws past it, seeded on the first
	// such draw and rngPos draws in since.
	draws  uint64
	stream *stream
	rng    *rand.Rand
	rngPos uint64
	Stats  Stats
	// Trace, when non-nil, receives a tx lifecycle event (begin,
	// commit, abort with cause) for every transaction. The HTM layer
	// emits these itself because only it knows the resolved abort
	// cause at abort time.
	Trace *obs.Ring
	// TraceActorBase is added to the core id in emitted events so that
	// several HTM systems sharing one ring stay distinguishable.
	TraceActorBase int32
}

// NewSystem creates an HTM with ncores logical cores.
func NewSystem(ncores int, cfg Config) *System {
	return &System{
		cfg:    cfg,
		cores:  make([]tx, ncores),
		stream: streamOf(cfg.Seed),
	}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Reset returns the system to its post-NewSystem state: every
// transaction is closed (its sets are dead state that Begin clears), the
// statistics are zeroed and the spontaneous-abort stream is rewound, so
// a reused system behaves identically to a freshly constructed one.
// Stats.Aborted is nil until the run's first abort makes a new map,
// never a cleared one: finished runs hand Stats out by value and keep
// the old map.
func (s *System) Reset() {
	for i := range s.cores {
		t := &s.cores[i]
		t.active, t.doomed, t.startCycle = false, CauseNone, 0
	}
	s.draws = 0
	s.Stats = Stats{}
}

// InTx reports whether core is currently executing a transaction
// (the XTEST instruction).
func (s *System) InTx(core int) bool { return s.cores[core].active }

// Doomed returns the pending abort cause for the core's transaction,
// or CauseNone. A doomed transaction keeps executing until the caller
// observes the doom and invokes Abort — mirroring how a real TSX abort
// appears asynchronously to the pipeline.
func (s *System) Doomed(core int) Cause { return s.cores[core].doomed }

// clearSets zeroes the core's per-set line counts.
func (s *System) clearSets(t *tx) {
	if len(t.setCount) != s.cfg.L1Sets {
		t.setCount = make([]uint16, s.cfg.L1Sets)
	} else {
		clear(t.setCount)
	}
}

// Begin starts a transaction on core at the given cycle (XBEGIN).
// It panics if a transaction is already active; flat nesting must be
// handled by the runtime layer.
func (s *System) Begin(core int, cycle uint64) {
	t := &s.cores[core]
	if t.active {
		panic(fmt.Sprintf("htm: nested Begin on core %d", core))
	}
	t.active = true
	t.doomed = CauseNone
	t.startCycle = cycle
	s.setDeadline(t)
	t.readSet.reset()
	t.writeSet.reset()
	t.writeVals.reset()
	s.clearSets(t)
	s.Stats.Started++
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{Kind: obs.KindTxBegin, Actor: s.TraceActorBase + int32(core), Time: cycle})
	}
}

// Commit attempts to commit the core's transaction (XEND). On success
// it calls apply for every buffered (wordAddr, value) pair, in the order
// the words were first written — the atomic flush of the write set to
// memory — and returns (CauseNone, true). If the transaction was doomed,
// it is aborted instead and the cause is returned with ok=false.
func (s *System) Commit(core int, cycle uint64, apply func(addr, val uint64)) (Cause, bool) {
	t := &s.cores[core]
	if !t.active {
		panic(fmt.Sprintf("htm: Commit without transaction on core %d", core))
	}
	s.checkDuration(core, cycle)
	if t.doomed != CauseNone {
		c := t.doomed
		s.abort(core, cycle, c)
		return c, false
	}
	for _, i := range t.writeVals.live {
		e := &t.writeVals.slots[i]
		apply(e.key, e.val)
	}
	s.Stats.Committed++
	s.Stats.TxCycles += cycle - t.startCycle
	t.active = false
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{Kind: obs.KindTxCommit, Actor: s.TraceActorBase + int32(core), Time: cycle})
	}
	return CauseNone, true
}

// Abort explicitly aborts the core's transaction (XABORT) with the
// given cause, discarding its write set. The caller is responsible
// for restoring register state from its snapshot.
func (s *System) Abort(core int, cycle uint64, cause Cause) {
	t := &s.cores[core]
	if !t.active {
		panic(fmt.Sprintf("htm: Abort without transaction on core %d", core))
	}
	if t.doomed != CauseNone {
		cause = t.doomed
	}
	s.abort(core, cycle, cause)
}

func (s *System) abort(core int, cycle uint64, cause Cause) {
	t := &s.cores[core]
	if s.Stats.Aborted == nil {
		s.Stats.Aborted = make(map[Cause]uint64)
	}
	s.Stats.Aborted[cause]++
	s.Stats.WastedCycles += cycle - t.startCycle
	t.active = false
	t.doomed = CauseNone
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{
			Kind: obs.KindTxAbort, Actor: s.TraceActorBase + int32(core), Time: cycle,
			Label: cause.String(),
		})
	}
}

// RecordFallback notes that a retry budget was exhausted.
func (s *System) RecordFallback() { s.Stats.FallbackRuns++ }

// doom marks the core's transaction for abort with the given cause if
// it is not already doomed.
func (s *System) doom(core int, cause Cause) {
	t := &s.cores[core]
	if t.active && t.doomed == CauseNone {
		t.doomed = cause
	}
}

// checkDuration dooms the transaction if it spans a timer interrupt or
// exceeds the duration bound.
func (s *System) checkDuration(core int, cycle uint64) {
	t := &s.cores[core]
	if t.active && cycle-t.durBase >= t.durSpan {
		s.doom(core, CauseOther)
	}
}

// setDeadline derives the duration check from t.startCycle. The
// transaction is doomed once it has run more than MaxCycles or the
// cycle counter is in another interrupt period than startCycle. With a
// duration bound that is "MaxCycles+1 or the distance to the next timer
// interrupt, whichever is less, from startCycle"; with a timer alone it
// is "outside the period startCycle lies in", which — unlike the first
// form — also holds for a cycle before startCycle. Without either, or
// with POWER8-style suspension across interrupts, it is "never". (Cycle
// counts are assumed to stay below 2^64-1.)
func (s *System) setDeadline(t *tx) {
	max, p := s.cfg.MaxCycles, s.cfg.InterruptPeriod
	switch {
	case s.cfg.SuspendOnInterrupt || max == 0 && p == 0:
		t.durBase, t.durSpan = 0, math.MaxUint64
	case max == 0:
		t.durBase, t.durSpan = t.startCycle-t.startCycle%p, p
	case p > 0 && p-t.startCycle%p <= max:
		t.durBase, t.durSpan = t.startCycle, p-t.startCycle%p
	default:
		t.durBase, t.durSpan = t.startCycle, max+1
	}
}

// sibling returns the hyper-thread sibling of core, or -1.
func (s *System) sibling(core int) int {
	if !s.cfg.HyperThreading {
		return -1
	}
	sib := core ^ 1
	if sib >= len(s.cores) {
		return -1
	}
	return sib
}

// effectiveWriteCap returns the write-set capacity available to core,
// shrunk by the hyper-thread sibling's resident transactional
// footprint when HT is enabled.
func (s *System) effectiveWriteCap(core int) int {
	cap := s.cfg.WriteSetLines
	if sib := s.sibling(core); sib >= 0 {
		st := &s.cores[sib]
		if st.active {
			cap -= st.writeSet.len() + st.readSet.len()/8
		}
		cap /= 2 // static partitioning of the shared L1
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

func (s *System) effectiveReadCap(core int) int {
	cap := s.cfg.ReadSetLines
	if sib := s.sibling(core); sib >= 0 {
		st := &s.cores[sib]
		cap /= 2
		if st.active {
			cap -= st.readSet.len()
		}
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Read performs a (possibly transactional) read of the 8-byte word at
// addr by core at the given cycle. If the word is buffered in the
// core's own write set the buffered value is returned with buffered =
// true; otherwise the caller must read main memory.
//
// Conflict semantics: a read snoops the line out of any other core's
// write set, dooming that transaction (its modified line is stolen).
func (s *System) Read(core int, addr uint64, cycle uint64) (val uint64, buffered bool) {
	line := Line(addr)
	for i := range s.cores {
		if i == core {
			continue
		}
		o := &s.cores[i]
		if o.active {
			if o.writeSet.has(line) {
				s.doom(i, CauseConflict)
			}
		}
	}
	t := &s.cores[core]
	if !t.active {
		return 0, false
	}
	s.checkDuration(core, cycle)
	s.spontaneous(core)
	if s.cfg.RollbackOnly {
		// Rollback-only transactions do not track reads at all.
		return t.writeVals.get(addr)
	}
	if t.readSet.put(line, 0) {
		if s.cfg.L1Sets > 0 {
			set := line % uint64(s.cfg.L1Sets)
			t.setCount[set]++
			ways := s.cfg.L1Ways
			if s.sibling(core) >= 0 {
				ways /= 2
			}
			if ways < 1 {
				ways = 1
			}
			if int(t.setCount[set]) > ways &&
				s.draw() < s.cfg.L1EvictAbortMicro*uint64(int(t.setCount[set])-ways) {
				s.doom(core, CauseCapacity)
			}
		}
	}
	if n := t.readSet.len(); n > s.Stats.MaxReadSet {
		s.Stats.MaxReadSet = n
	}
	if t.readSet.len() > s.effectiveReadCap(core) {
		s.doom(core, CauseCapacity)
	}
	return t.writeVals.get(addr)
}

// Write performs a (possibly transactional) write of the 8-byte word
// at addr. Transactional writes are buffered; the function reports
// whether the value was buffered (true) or should be written to main
// memory by the caller (false, non-transactional).
//
// Conflict semantics: a write snoops the line out of every other
// core's read and write sets, dooming those transactions.
func (s *System) Write(core int, addr, val uint64, cycle uint64) (buffered bool) {
	line := Line(addr)
	for i := range s.cores {
		if i == core {
			continue
		}
		o := &s.cores[i]
		if !o.active {
			continue
		}
		if o.writeSet.has(line) || o.readSet.has(line) {
			s.doom(i, CauseConflict)
		}
	}
	t := &s.cores[core]
	if !t.active {
		return false
	}
	s.checkDuration(core, cycle)
	s.spontaneous(core)
	grew := t.writeSet.put(line, 0)
	t.writeVals.put(addr, val)
	n := t.writeSet.len()
	if n > s.Stats.MaxWriteSet {
		s.Stats.MaxWriteSet = n
	}
	if grew {
		cap := s.effectiveWriteCap(core)
		if over := n - cap; over > 0 {
			switch {
			case n > 2*cap:
				s.doom(core, CauseCapacity)
			case s.cfg.WriteEvictAbortMicro > 0 &&
				s.draw() < s.cfg.WriteEvictAbortMicro*uint64(over):
				s.doom(core, CauseCapacity)
			}
		}
	}
	return true
}

// Unfriendly reports an unfriendly instruction (system call, I/O,
// x87/TLB manipulation) executed by core; it dooms any active
// transaction with CauseOther.
func (s *System) Unfriendly(core int) {
	s.doom(core, CauseOther)
}

// Tick lets the system observe the passage of time on a core outside
// of memory accesses (long arithmetic stretches still hit timer
// interrupts).
func (s *System) Tick(core int, cycle uint64) {
	s.checkDuration(core, cycle)
}

func (s *System) spontaneous(core int) {
	p := s.cfg.SpontaneousPerAccessMicro
	if p == 0 {
		return
	}
	if s.draw() < p {
		s.doom(core, CauseOther)
	}
}

// Draws returns the position of the spontaneous-abort stream.
func (s *System) Draws() uint64 { return s.draws }
