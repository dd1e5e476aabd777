// Package vm executes IR programs on a simulated multi-core machine.
//
// The machine integrates three models:
//
//   - functional execution of the IR (registers, flat memory, threads,
//     locks, barriers);
//   - the HTM simulator (package htm), which provides the
//     transactional read/write sets, conflict detection and rollback
//     that HAFT's TX pass relies on;
//   - the timing model (package cpu), a width-limited scoreboard that
//     makes the cost of the ILR shadow flow depend on the program's
//     spare instruction-level parallelism.
//
// Cores are interleaved deterministically by simulated time: at every
// step the runnable core with the smallest local clock executes one
// instruction. This gives a single coherent timeline, which both the
// HTM conflict detection and the throughput numbers are derived from.
//
// The machine also hosts HAFT's runtime: the transactification helper
// intrinsics (tx.begin, tx.end, tx.cond_split, tx.counter_inc), the
// ILR detection point (ilr.fail), lock elision wrappers, and the
// fault-injection hook used by package fault.
package vm

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Status describes how a run ended.
type Status uint8

const (
	// StatusOK: all threads returned normally.
	StatusOK Status = iota
	// StatusCrashed: the "OS" terminated the program — invalid memory
	// access, division by zero, trap, call stack overflow, deadlock.
	StatusCrashed
	// StatusILRDetected: an ILR check failed outside a transaction (or
	// with recovery disabled) and the program terminated itself.
	StatusILRDetected
	// StatusHung: the instruction budget was exhausted.
	StatusHung
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCrashed:
		return "crashed"
	case StatusILRDetected:
		return "ilr-detected"
	case StatusHung:
		return "hung"
	}
	return "status?"
}

// Config parameterizes a machine.
type Config struct {
	// HTM is the transactional memory configuration.
	HTM htm.Config
	// IssueWidth is the per-core superscalar width (default 4).
	IssueWidth int
	// MaxRetries bounds transaction re-execution before the
	// non-transactional fallback (paper default: 3).
	MaxRetries int
	// MaxDynInstrs aborts the run as hung after this many dynamic
	// instructions across all cores (0 = 500M).
	MaxDynInstrs uint64
	// DisableRecovery makes ilr.fail terminate even inside a
	// transaction; used to model the ILR-only configuration.
	DisableRecovery bool
	// AdaptiveThreshold enables the dynamic transaction-size
	// adjustment sketched in the paper's future work (§7): each core
	// tracks its own effective split threshold, halving it after an
	// abort (down to 100) and growing it by 25% after 16 consecutive
	// commits (up to 4x the static threshold). Code paths that abort a
	// lot get small transactions; quiet paths amortize the begin/end
	// cost over large ones.
	AdaptiveThreshold bool
}

// DefaultConfig returns the standard machine configuration.
func DefaultConfig() Config {
	return Config{
		HTM:          htm.DefaultConfig(),
		IssueWidth:   cpu.DefaultWidth,
		MaxRetries:   3,
		MaxDynInstrs: 500_000_000,
	}
}

// FaultModel selects which architectural state a FaultPlan corrupts.
// The paper's injector (§4.2) implements only FaultRegister; the other
// models extend the campaign to the SEU/SET classes that ZOFI and
// Azambuja et al. argue a register-only campaign leaves untested:
// memory cells, control flow, address lines, and missing updates.
type FaultModel uint8

const (
	// FaultRegister XORs Mask into the output register of the
	// TargetIndex-th dynamic register-writing instruction (the
	// original §4.2 model).
	FaultRegister FaultModel = iota
	// FaultMemory flips Mask bits in the memory word touched by the
	// TargetIndex-th dynamic memory access — a live address by
	// construction. Loads are corrupted before the read (the value
	// observed is wrong and the cell stays wrong); stores after the
	// write (the cell holding the just-stored value is wrong).
	FaultMemory
	// FaultBranch inverts the direction of the TargetIndex-th dynamic
	// conditional branch (an SET on the condition flag).
	FaultBranch
	// FaultAddress XORs Mask into the effective address of the
	// TargetIndex-th dynamic memory access for that access only (an
	// SET on the address lines): the access reads or writes the wrong
	// location, or traps on a wild/misaligned address.
	FaultAddress
	// FaultSkip suppresses the result latch of the TargetIndex-th
	// dynamic register-writing instruction: the destination register
	// keeps its stale value, as if the instruction had been skipped.
	FaultSkip
)

// String returns the model's campaign name.
func (fm FaultModel) String() string {
	switch fm {
	case FaultRegister:
		return "reg"
	case FaultMemory:
		return "mem"
	case FaultBranch:
		return "branch"
	case FaultAddress:
		return "addr"
	case FaultSkip:
		return "skip"
	}
	return "model?"
}

// FaultFlow restricts register-indexed fault models (FaultRegister,
// FaultSkip) to one side of the ILR replication, so the symmetry of
// master and shadow flow can itself be validated: a flip in either
// copy must be detected alike.
type FaultFlow uint8

const (
	// FlowAny counts every register-writing instruction (default).
	FlowAny FaultFlow = iota
	// FlowMaster counts only original (non-shadow) instructions.
	FlowMaster
	// FlowShadow counts only ILR-inserted shadow instructions (the
	// first shadow flow under TMR).
	FlowShadow
	// FlowShadow2 counts only the second shadow flow of the TMR pass.
	FlowShadow2
)

// String returns the flow name.
func (f FaultFlow) String() string {
	switch f {
	case FlowMaster:
		return "master"
	case FlowShadow:
		return "shadow"
	case FlowShadow2:
		return "shadow2"
	}
	return "any"
}

// FaultPlan requests injection of a single fault: when the
// TargetIndex-th dynamic event of the model's population (counted
// globally across cores) occurs, the fault is applied. The populations
// are reported by a reference run in RunStats: RegWrites (register and
// skip models, filtered by Flow), MemAccesses (memory and address
// models), CondBranches (branch model). Several plans may be armed at
// once (SetFaultPlans) to model multi-bit upsets and fault storms.
type FaultPlan struct {
	Model       FaultModel
	TargetIndex uint64
	Mask        uint64
	// Flow restricts FaultRegister/FaultSkip to the master or shadow
	// data flow; ignored by the other models.
	Flow FaultFlow

	// Results, filled in by the machine:
	Injected bool
	Where    string // "func/block op"
}

// RunStats aggregates measurements of one run.
type RunStats struct {
	// Cycles is the simulated duration of the run (max over cores).
	Cycles uint64
	// BusyCycles is the sum of per-core active cycles.
	BusyCycles uint64
	// DynInstrs counts executed instructions.
	DynInstrs uint64
	// RegWrites counts instructions that wrote a register (the fault
	// injection population of the register and skip models).
	RegWrites uint64
	// ShadowRegWrites counts register writes by shadow-flow
	// instructions (both TMR shadow flows included);
	// RegWrites-ShadowRegWrites is the master-flow population.
	ShadowRegWrites uint64
	// Shadow2RegWrites counts register writes by the second TMR shadow
	// flow; ShadowRegWrites-Shadow2RegWrites is the first-shadow
	// population. Zero outside TMR mode.
	Shadow2RegWrites uint64
	// CorrectedFaults counts replica divergences corrected in place by
	// TMR majority votes (the correction events of the Elzar scheme).
	CorrectedFaults uint64
	// MemAccesses counts dynamic memory accesses (loads and stores,
	// atomics included; an ARMW counts its read and its write) — the
	// population of the memory and address fault models.
	MemAccesses uint64
	// CondBranches counts dynamic conditional branches — the
	// population of the branch-inversion fault model.
	CondBranches uint64
	// ExplicitAborts counts ILR-triggered transaction aborts
	// (the recovery events).
	ExplicitAborts uint64
	// Recovered counts explicit aborts that were followed by a
	// successful re-execution (commit of the retried transaction).
	Recovered uint64
	// CrashReason holds a diagnostic for StatusCrashed.
	CrashReason string
	// TxBusyCycles is the number of core cycles spent inside
	// transactions (committed or aborted); TxBusyCycles/BusyCycles is
	// the §5.6 coverage metric.
	TxBusyCycles uint64
}

// ThreadSpec names the entry function and arguments of one thread.
type ThreadSpec struct {
	Func string
	Args []uint64
}

// l1Sets is the number of direct-mapped cache sets (32 KB / 64 B).
const l1Sets = 512

// l1MissPenalty is the extra load latency on an L1 miss.
const l1MissPenalty = 26

// loadLatency consults the core's cache model and updates it.
func (c *core) loadLatency(addr uint64, base uint64) uint64 {
	line := addr / 64
	idx := line % l1Sets
	if c.l1tags[idx] == line+1 {
		return base
	}
	c.l1tags[idx] = line + 1
	return base + l1MissPenalty
}

// threadState is the scheduler view of a core.
type threadState uint8

const (
	threadRunnable threadState = iota
	threadBlocked              // waiting on a lock or barrier
	threadDone
)

// frame is one activation record.
type frame struct {
	fn  *ir.Func
	cfn *cfunc // compiled body
	// code is cfn.code, held here so that the dispatch reaches the next
	// instruction, code[pc], in one step.
	code []cinstr
	pc   int
	// block is the block pc is in, and prevBlk the block control came
	// from, for phi resolution; both name locations in messages.
	block    int
	prevBlk  int
	regs     []uint64
	ready    []uint64 // per-register readiness cycle
	base     uint64   // frame base address in the stack region
	retReg   ir.ValueID
	retReady bool // caller expects a value
}

// txSnapshot captures the state restored on transaction abort. Each
// core refills its own (core.txbuf) at every transaction begin, so a
// machine snapshot copies the frames instead of keeping the pointer.
type txSnapshot struct {
	frames []frame // deep copies
}

// core is one simulated logical CPU running one thread. The fields
// every instruction touches come first, the cache tags last.
type core struct {
	id     int
	sched  cpu.Sched
	frames []frame

	coreState

	// snapshot is the frame stack to restore when the active
	// transaction aborts (HAFT helpers): nil or, outside tests, &txbuf.
	snapshot *txSnapshot
	txbuf    txSnapshot
	// free holds the register files of popped frames for the next push.
	free [][]uint64
	// elided tracks locks elided by the active transaction.
	elided []uint64

	stackBase  uint64
	stackLimit uint64

	// l1tags is a direct-mapped 32 KB / 64 B-line cache model used only
	// for load latency: a miss costs extra cycles. This is what makes
	// cache-unfriendly code (matrixmul's column-order accesses) genuinely
	// latency-bound, reproducing its very low native ILP (§5.2). A
	// snapshot holds it as blocks, most of them shared with the previous
	// snapshot, so it is not part of coreState.
	l1tags [l1Sets]uint64
}

// coreState is the part of a core's run-time state that is a few plain
// values: Machine.Snapshot copies it and Machine.Equal compares it as
// a whole, so a field added here is covered by both. State held behind
// a pointer or slice, or too large to copy whole at every snapshot,
// belongs in core and needs its own line in snapshot.go.
type coreState struct {
	state threadState

	// Transaction runtime (HAFT helpers).
	attempts  int
	counter   int64 // thread-local instruction counter (§3.2)
	txEntered uint64

	waitLock    uint64 // lock address when blocked on a lock
	waitBarrier uint64 // barrier address when blocked on a barrier

	// grantLock / grantBarrier implement wakeup handoff: the releasing
	// thread marks the waiter, which observes the grant when it
	// re-executes the blocking intrinsic.
	grantLock    uint64
	grantBarrier uint64

	// hadExplicit records that the active transaction attempt follows
	// an explicit (ILR-detected) abort, so a successful commit counts
	// as a recovery.
	hadExplicit bool

	// diverged records that a relaxed tx.check observed a master/shadow
	// mismatch inside the active transaction. The divergence is acted
	// on at the next commit point (abort-on-divergence at commit,
	// §3.3): until then every side effect is still buffered by the
	// HTM, so deferring the reaction loses no protection.
	diverged bool

	// Adaptive-threshold state (Config.AdaptiveThreshold).
	dynLimit     int64
	dynBase      int64
	commitStreak int

	doneVal uint64
}

// lockState tracks one mutex.
type lockState struct {
	held    bool
	owner   int
	waiters []int // core ids in FIFO order
}

// barrierState tracks one barrier.
type barrierState struct {
	need    int
	arrived []int
}

// pageWords is the size of a page of the memory image: 512 words, 4 KiB.
const pageWords = 512

// Machine executes one module.
type Machine struct {
	Mod *ir.Module
	Cfg Config
	HTM *htm.System

	// mem is the memory image, memWords words long, as a table of 4 KiB
	// pages. A fresh machine's image is pristine, and its table points at
	// the Program's pristine pages (zero, plus the initialisers of
	// Mod.Globals), which every machine of the Program shares read-only.
	// Every store goes through Machine.store: on the first store to a
	// page it gives the machine its own copy of the page and records the
	// page in dirty, so that every page not in dirty is pristine, and
	// Reset, Snapshot, Restore and Equal handle the pages a run touched
	// instead of the image. A copy stays the machine's across Reset,
	// which refills it from the Program.
	mem      []*[pageWords]uint64
	memWords int
	memBytes uint64
	dirty    []int32 // the pages stored to, in first-store order
	isDirty  []bool  // per page: is it in dirty

	// limit is the DynInstrs value past which the dispatch loops stop:
	// the instruction budget, or an earlier pause point (RunUntil).
	limit uint64

	cores    []*core
	locks    map[uint64]*lockState
	barriers map[uint64]*barrierState
	heapNext uint64

	output   []uint64
	nthreads int

	status Status
	stats  RunStats
	faults []*FaultPlan
	// pending counts the armed plans not yet injected. The dispatch loops
	// scan the plans only while it is nonzero, so a run whose plans have
	// all fired runs on the fault-free path.
	pending int
	tracer  func(TraceEvent)
	obsRing *obs.Ring
	obsBase int32
	prof    *obs.Profiler

	// lastSnap is the snapshot the machine last took or restored since
	// Reset, nil without one: Snapshot shares the blocks that still equal
	// its blocks.
	lastSnap *Snapshot

	// prog is the program the dispatch loops in cexec.go execute. Reset
	// never touches it, so a pooled machine keeps its compiled artifact
	// across reuses.
	prog *Program
	// stepwise makes every scheduler turn one instruction long instead
	// of a run-ahead turn (loopCN).
	stepwise bool
	// wakes counts the blocked cores made runnable (Machine.wake); only
	// its movement within a turn matters, so it is not run state.
	wakes uint64
	// phiScratch is reused by the phi-group handler.
	phiScratch []phiUpd

	outputLimit int
}

// New builds a machine for the module with n threads that compiles the
// module and gives each scheduler turn one instruction: the same
// lowering and interleaving as NewFromProgram without run-ahead turns,
// which makes it the live reference for them.
func New(m *ir.Module, nthreads int, cfg Config) *Machine {
	mach := newMachine(m, Compile(m), nthreads, cfg)
	mach.stepwise = true
	return mach
}

// NewFromProgram builds a machine executing a precompiled program.
// The program is immutable and may be shared by any number of
// machines concurrently (the campaign workers and the serve warm pool
// rely on this). Behavior is bit-identical to New(p.Mod, ...).
func NewFromProgram(p *Program, nthreads int, cfg Config) *Machine {
	return newMachine(p.Mod, p, nthreads, cfg)
}

func newMachine(m *ir.Module, p *Program, nthreads int, cfg Config) *Machine {
	if cfg.IssueWidth == 0 {
		cfg.IssueWidth = cpu.DefaultWidth
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxDynInstrs == 0 {
		cfg.MaxDynInstrs = 500_000_000
	}
	memBytes := m.Layout()
	stackStart := memBytes
	memBytes += uint64(nthreads) * m.StackBytes
	memWords := int(memBytes / 8)
	npages := (memWords + pageWords - 1) / pageWords
	mach := &Machine{
		Mod:         m,
		prog:        p,
		Cfg:         cfg,
		HTM:         htm.NewSystem(nthreads, cfg.HTM),
		mem:         make([]*[pageWords]uint64, npages),
		memWords:    memWords,
		memBytes:    memBytes,
		isDirty:     make([]bool, npages),
		locks:       make(map[uint64]*lockState),
		barriers:    make(map[uint64]*barrierState),
		heapNext:    m.HeapBase,
		outputLimit: 1 << 22,
	}
	for i := range mach.mem {
		mach.mem[i] = p.page(int32(i))
	}
	for i := 0; i < nthreads; i++ {
		c := &core{
			id:         i,
			sched:      *cpu.NewSched(cfg.IssueWidth),
			stackBase:  stackStart + uint64(i)*m.StackBytes,
			stackLimit: stackStart + uint64(i+1)*m.StackBytes,
		}
		c.state = threadDone // becomes runnable on Start
		mach.cores = append(mach.cores, c)
	}
	return mach
}

// SetFaultPlan arms a single-fault injection (may be nil to disarm).
func (m *Machine) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		m.SetFaultPlans(nil)
		return
	}
	m.SetFaultPlans([]*FaultPlan{p})
}

// SetFaultPlans arms several fault plans at once — double SEUs and
// chaos fault storms. Nil or empty disarms. A plan already Injected
// stays as it is. Once every armed plan has fired, the run continues on
// the same path as an unarmed one (PendingFaults).
func (m *Machine) SetFaultPlans(ps []*FaultPlan) {
	m.faults, m.pending = ps, 0
	for _, p := range ps {
		if !p.Injected {
			m.pending++
		}
	}
}

// PendingFaults returns the number of armed fault plans that have not
// fired yet.
func (m *Machine) PendingFaults() int { return m.pending }

// Reset returns the machine to its post-New state so it can run again
// without re-cloning the module or reallocating memory: the pages the
// run stored to are made pristine again, the HTM system and per-core
// scoreboards restart from cycle 0, and all statistics are cleared. A
// reused machine is byte-identical in behavior to a fresh one (the serve
// layer's warm-pool contract); installed tracers survive, armed fault
// plans do not.
func (m *Machine) Reset() {
	for _, p := range m.dirty {
		m.pristine(p)
		m.isDirty[p] = false
	}
	m.dirty = m.dirty[:0]
	m.HTM.Reset()
	clear(m.locks)
	clear(m.barriers)
	m.heapNext = m.Mod.HeapBase
	m.output = m.output[:0]
	m.nthreads = 0
	m.status = StatusOK
	m.stats = RunStats{}
	m.faults, m.pending = nil, 0
	m.lastSnap = nil
	for _, c := range m.cores {
		c.sched.Reset()
		c.release(c.frames)
		c.frames = c.frames[:0]
		c.state = threadDone
		c.attempts = 0
		c.snapshot = nil
		c.counter = 0
		c.txEntered = 0
		c.elided = c.elided[:0]
		c.l1tags = [l1Sets]uint64{}
		c.waitLock, c.waitBarrier = 0, 0
		c.grantLock, c.grantBarrier = 0, 0
		c.hadExplicit = false
		c.diverged = false
		c.dynLimit, c.dynBase, c.commitStreak = 0, 0, 0
		c.doneVal = 0
	}
}

// TraceEvent describes one executed register-writing instruction, in
// the spirit of Intel SDE's debugtrace that the paper's fault injector
// builds on (§4.2): the dynamic occurrence index, its location, and
// the value written.
type TraceEvent struct {
	// Index is the dynamic register-write index (the same numbering
	// FaultPlan.TargetIndex uses).
	Index uint64
	Core  int
	Func  string
	Block string
	// Line is the instruction's source line (0 when the IR carries no
	// line info); forensic replay uses it for per-line localization.
	Line  int32
	Op    ir.Op
	Res   ir.ValueID
	Value uint64
	Cycle uint64
}

// SetTracer installs a per-register-write callback (nil to disable).
// Tracing is the reference-run side of the two-step fault-injection
// protocol and the backing for haftc's -trace flag.
func (m *Machine) SetTracer(fn func(TraceEvent)) { m.tracer = fn }

// SetObsRing attaches an observability ring buffer (nil to detach).
// The machine and its HTM system emit structured events into it: tx
// begin/commit/abort with cause, ILR check divergences with the
// diverging value pair, fault-injection sites, and retry decisions.
// Like tracers, the ring survives Reset. Attaching a ring never
// perturbs simulated state.
func (m *Machine) SetObsRing(r *obs.Ring) {
	m.obsRing = r
	m.HTM.Trace = r
}

// SetObsActorBase offsets the Actor field of every event this machine
// emits. Pools that share one ring across several machines (the serve
// warm pool, campaign workers) give each machine a disjoint base so
// core 0 of instance 2 is distinguishable from core 0 of instance 3.
func (m *Machine) SetObsActorBase(b int32) {
	m.obsBase = b
	m.HTM.TraceActorBase = b
}

// SetProfiler attaches a hardening-overhead profiler that attributes
// every dynamic instruction to a (function, source line, category)
// cell (nil to detach). Survives Reset; never perturbs simulated
// state or instruction counts.
func (m *Machine) SetProfiler(p *obs.Profiler) { m.prof = p }

// emitFault reports a fired fault plan to the observability ring.
func (m *Machine) emitFault(c *core, p *FaultPlan) {
	if m.obsRing != nil {
		m.obsRing.Emit(obs.Event{
			Kind: obs.KindFault, Actor: m.obsBase + int32(c.id), Time: c.sched.Now(),
			A: p.TargetIndex, Label: p.Where,
		})
	}
}

// Output returns the externalized output stream. Its array is reused by
// the machine's next Reset or Restore: copy it to keep it past them.
func (m *Machine) Output() []uint64 { return m.output }

// Stats returns the run statistics.
func (m *Machine) Stats() RunStats { return m.stats }

// Status returns the final run status.
func (m *Machine) Status() Status { return m.status }

// Coverage returns the fraction (0..1) of busy cycles spent inside
// hardware transactions — the §5.6 code-coverage metric.
func (m *Machine) Coverage() float64 {
	if m.stats.BusyCycles == 0 {
		return 0
	}
	return float64(m.stats.TxBusyCycles) / float64(m.stats.BusyCycles)
}

// Run starts one thread per spec and executes to completion. It
// returns the final status.
func (m *Machine) Run(specs ...ThreadSpec) Status {
	m.Start(specs...)
	m.RunUntil(math.MaxUint64)
	return m.status
}

// Start sets up one thread per spec without executing anything; the
// run proceeds in RunUntil steps.
func (m *Machine) Start(specs ...ThreadSpec) {
	if len(specs) > len(m.cores) {
		panic("vm: more thread specs than cores")
	}
	m.nthreads = len(specs)
	for i, spec := range specs {
		f := m.Mod.Func(spec.Func)
		if f == nil {
			panic("vm: unknown entry function " + spec.Func)
		}
		if len(spec.Args) != f.NParams {
			panic(fmt.Sprintf("vm: entry %s wants %d args, got %d", spec.Func, f.NParams, len(spec.Args)))
		}
		c := m.cores[i]
		c.state = threadRunnable
		c.release(c.frames)
		cf := m.prog.funcs[m.Mod.FuncIndex(spec.Func)]
		fr := frame{fn: f, cfn: cf, code: cf.code, base: c.stackBase}
		fr.regs, fr.ready = c.file(f.NValues)
		copy(fr.regs, spec.Args)
		c.frames = append(c.frames[:0], fr)
	}
	m.status = StatusOK
}

// RunUntil resumes a started (or restored) run and reports whether it
// ended. It pauses, reporting false, at the first instruction boundary
// where more than pause dynamic instructions have executed; the
// machine can then be snapshotted, compared, and resumed. Pausing
// reuses the dispatch loops' instruction-budget check, so a run taken
// in any number of steps is bit-identical to a straight one. RunUntil
// must not be called again once it has reported true.
func (m *Machine) RunUntil(pause uint64) (ended bool) {
	m.limit = min(pause, m.Cfg.MaxDynInstrs)
	m.loopCN()
	if m.status == StatusHung && m.limit < m.Cfg.MaxDynInstrs {
		m.status = StatusOK // stopped by the pause point, not the budget
		return false
	}
	m.finishRun()
	return true
}

// finishRun performs the end-of-run accounting.
func (m *Machine) finishRun() {
	for _, c := range m.cores {
		n := c.sched.Now()
		if n > m.stats.Cycles {
			m.stats.Cycles = n
		}
		m.stats.BusyCycles += c.sched.Busy()
	}
	m.stats.TxBusyCycles = m.HTM.Stats.TxCycles + m.HTM.Stats.WastedCycles
}

// crash terminates the run with StatusCrashed.
func (m *Machine) crash(reason string) {
	if m.status == StatusOK {
		m.status = StatusCrashed
		m.stats.CrashReason = reason
	}
}

// memFaultPre accounts one dynamic memory access and applies armed
// address-line and memory-cell fault plans. It returns the effective
// address (corrupted by an address fault for this access only) and,
// for stores, the memory-cell plan to apply after the write lands.
// Loads flip the cell before the read: the value observed is already
// corrupted and the cell stays corrupted — a memory SEU at a live
// address.
func (m *Machine) memFaultPre(c *core, addr uint64, load bool) (uint64, *FaultPlan) {
	m.stats.MemAccesses++
	if m.pending == 0 {
		return addr, nil
	}
	idx := m.stats.MemAccesses - 1
	var post *FaultPlan
	for _, p := range m.faults {
		if p.Injected || p.TargetIndex != idx {
			continue
		}
		switch p.Model {
		case FaultAddress:
			addr ^= p.Mask
			m.markInjected(c, p)
		case FaultMemory:
			if load {
				m.flipWord(c, addr, p)
			} else {
				post = p // flip after the store lands
			}
		}
	}
	return addr, post
}

// flipWord XORs a fault mask into the memory word at addr (no-op on
// addresses outside memory: the access itself will trap).
func (m *Machine) flipWord(c *core, addr uint64, p *FaultPlan) {
	if addr >= 8 && m.inImage(addr) {
		m.store(addr/8, m.word(addr/8)^p.Mask)
	}
	m.markInjected(c, p)
}

// markInjected records that a plan fired and where.
func (m *Machine) markInjected(c *core, p *FaultPlan) {
	p.Injected = true
	m.pending--
	if len(c.frames) > 0 {
		fr := &c.frames[len(c.frames)-1]
		b := fr.fn.Blocks[fr.block]
		op := "?"
		if i := fr.pc - int(fr.cfn.start[fr.block]); i < len(b.Instrs) {
			op = b.Instrs[i].Op.String()
		}
		p.Where = fmt.Sprintf("%s/%s %s", fr.fn.Name, b.Name, op)
	}
	m.emitFault(c, p)
}

// memRead reads the word at a byte address through the HTM layer.
func (m *Machine) memRead(c *core, addr uint64) (uint64, bool) {
	addr, _ = m.memFaultPre(c, addr, true)
	if addr < 8 || !m.inImage(addr) {
		m.crash(fmt.Sprintf("invalid load at %#x", addr))
		return 0, false
	}
	if v, buffered := m.HTM.Read(c.id, addr, c.sched.Now()); buffered {
		return v, true
	}
	return m.word(addr / 8), true
}

// memWrite writes the word at a byte address through the HTM layer.
func (m *Machine) memWrite(c *core, addr, val uint64) bool {
	addr, post := m.memFaultPre(c, addr, false)
	if addr < 8 || !m.inImage(addr) {
		m.crash(fmt.Sprintf("invalid store at %#x", addr))
		return false
	}
	if buffered := m.HTM.Write(c.id, addr, val, c.sched.Now()); !buffered {
		m.store(addr/8, val)
	}
	if post != nil {
		m.flipWord(c, addr, post)
	}
	return true
}

// inImage reports whether addr is the address of a word of the image:
// aligned, and its last byte below memBytes (memBytes-8 cannot wrap,
// addr+8 can).
func (m *Machine) inImage(addr uint64) bool {
	return addr%8 == 0 && addr <= m.memBytes-8
}

// word returns word w of the image.
func (m *Machine) word(w uint64) uint64 {
	return m.mem[w/pageWords][w%pageWords]
}

// store is the one way a word of the memory image changes after
// construction (see Machine.mem).
func (m *Machine) store(word, val uint64) {
	p := word / pageWords
	if !m.isDirty[p] {
		m.markDirty(int32(p))
	}
	m.mem[p][word%pageWords] = val
}

func (m *Machine) markDirty(p int32) {
	m.own(p)
	m.isDirty[p] = true
	m.dirty = append(m.dirty, p)
}

// own gives the machine its own copy of page p if it still shares the
// Program's.
func (m *Machine) own(p int32) {
	if shared := m.prog.page(p); m.mem[p] == shared {
		m.mem[p] = new([pageWords]uint64)
		*m.mem[p] = *shared
	}
}

// pristine makes page p of the image, which the machine owns, pristine.
func (m *Machine) pristine(p int32) {
	*m.mem[p] = *m.prog.page(p)
}

// isPristine reports whether page p of the image is pristine.
func (m *Machine) isPristine(p int32) bool {
	return *m.mem[p] == *m.prog.page(p)
}

// Malloc exposes the bump allocator for host-side setup of dynamic
// data structures (tests and workload initialization).
func (m *Machine) Malloc(bytes uint64) uint64 {
	addr := m.heapNext
	if r := addr % 64; r != 0 {
		addr += 64 - r
	}
	if addr+bytes > m.Mod.HeapBase+m.Mod.HeapBytes {
		return 0
	}
	m.heapNext = addr + bytes
	return addr
}

// Poke writes a word directly to memory (host-side setup only).
func (m *Machine) Poke(addr, val uint64) {
	if !m.inImage(addr) {
		panic(fmt.Sprintf("vm: Poke at invalid address %#x", addr))
	}
	m.store(addr/8, val)
}

// Peek reads a word directly from memory (host-side inspection only).
func (m *Machine) Peek(addr uint64) uint64 {
	if !m.inImage(addr) {
		panic(fmt.Sprintf("vm: Peek at invalid address %#x", addr))
	}
	return m.word(addr / 8)
}
