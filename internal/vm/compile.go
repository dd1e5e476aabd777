// The lowering every machine executes: Compile turns a verified
// ir.Module once into a flat, cache-friendly Program that the dispatch
// loops (cexec.go) execute without re-resolving operands, block
// targets, phi edges, or intrinsic names per dynamic instruction. The
// compiled form is immutable, a pure function of its module, and safe
// to share: any number of Machines (campaign workers, the serve warm
// pool) can run the same Program concurrently, each with its own
// registers, HTM state and dirty memory pages. Machine.Reset never
// touches the program, so a pooled machine keeps its compiled code
// across reuse.
//
// The Program also carries the pristine memory image, captured at
// Compile: the pages that hold the initialisers of the module's
// globals. Machines read them in place and copy a page only on their
// first store to it (see Machine.mem), so a module's globals must not
// change after it is compiled.
//
// The lowering rules:
//
//   - Operands become carg{v, r}: a register index or an immediate,
//     decided at compile time (no ir.Operand.IsConst branch per step).
//   - Every instruction's issue latency (cpu.Latency /
//     cpu.IntrinsicLatency) and shadow flag are precomputed.
//   - Block bodies are concatenated into one contiguous code array per
//     function, and a frame executes it by pc: cfunc.start maps a block
//     index to its first pc, which a branch jumps to, and a synthetic
//     end-of-block slot reproduces the "fell off block" crash without a
//     bounds check per step.
//   - Direct calls are bound to a function index or an intrinsic id at
//     compile time; unknown callees lower to sentinel ops that crash
//     with the callee's name.
//   - Phi runs are pre-batched per predecessor into permutation-move
//     lists (cphiGroup), including the exact crash/accounting behavior
//     for a predecessor with no edge.
//
// Correctness contract: run-ahead turns (NewFromProgram) are
// bit-identical to stepwise turns (New) in Status, Output, RunStats,
// fault-injection behavior (sites, populations, outcomes), obs
// emission, and profiler attribution, at any thread count;
// compile_test.go, runahead_test.go and the internal/lang engine fuzz
// pin this. The lowering itself is held to lang.Interp, an AST
// interpreter independent of this package.
package vm

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/ir"
)

// intrID is a dense intrinsic index; the machine dispatches intrinsics
// by id instead of by name. The table covers exactly the names
// ir.IsIntrinsic accepts.
type intrID uint8

const (
	intrTxBegin intrID = iota
	intrTxEnd
	intrTxCondSplit
	intrTxCounterInc
	intrTxCheck
	intrTmrVote
	intrILRFail
	intrHaftCrash
	intrLockAcquire
	intrLockRelease
	intrLockAcquireElide
	intrLockReleaseElide
	intrMalloc
	intrFree
	intrThreadID
	intrThreadCount
	intrBarrierWait
	intrSysRead
	intrSysWrite
	numIntrinsics
)

var intrinsicNames = [numIntrinsics]string{
	intrTxBegin:          "tx.begin",
	intrTxEnd:            "tx.end",
	intrTxCondSplit:      "tx.cond_split",
	intrTxCounterInc:     "tx.counter_inc",
	intrTxCheck:          "tx.check",
	intrTmrVote:          "tmr.vote",
	intrILRFail:          "ilr.fail",
	intrHaftCrash:        "haft.crash",
	intrLockAcquire:      "lock.acquire",
	intrLockRelease:      "lock.release",
	intrLockAcquireElide: "lock.acquire_elide",
	intrLockReleaseElide: "lock.release_elide",
	intrMalloc:           "malloc",
	intrFree:             "free",
	intrThreadID:         "thread.id",
	intrThreadCount:      "thread.count",
	intrBarrierWait:      "barrier.wait",
	intrSysRead:          "sys.read",
	intrSysWrite:         "sys.write",
}

// intrinsicIDs resolves a callee name to its dense id, once per call
// site at compile time.
var intrinsicIDs map[string]intrID

// intrinsicLat caches cpu.IntrinsicLatency per id so the runtime never
// consults the name-keyed latency table on the hot path.
var intrinsicLat [numIntrinsics]uint64

// latPhi is the precomputed phi-move latency.
var latPhi uint64

func init() {
	intrinsicIDs = make(map[string]intrID, numIntrinsics)
	for id, name := range intrinsicNames {
		intrinsicIDs[name] = intrID(id)
		intrinsicLat[id] = cpu.IntrinsicLatency(name)
	}
	latPhi = cpu.Latency(ir.OpPhi)
}

// Sentinel ops, private to the lowering. They occupy the high end of
// the ir.Op space and stand for crash paths the compiler resolves
// statically.
const (
	// copFellOff sits after the last instruction of every block:
	// control falling past a block without a terminator crashes.
	copFellOff ir.Op = 0xF0 + iota
	// copBadCall is a direct call to a name that is neither an
	// intrinsic nor a module function.
	copBadCall
)

// carg is a pre-resolved operand: r >= 0 names a frame register,
// r < 0 means the immediate v.
type carg struct {
	v uint64
	r int32
}

// cval evaluates a pre-resolved operand, returning the value and its
// readiness cycle.
func (fr *frame) cval(a carg) (uint64, uint64) {
	if a.r >= 0 {
		return fr.regs[a.r], fr.ready[a.r]
	}
	return a.v, 0
}

// cinstr is one flattened instruction. It carries everything the
// dispatch loop needs pre-resolved; in points back to the ir.Instr
// for the slow paths that report locations (faults, tracer, profiler,
// crash messages).
type cinstr struct {
	args []carg
	in   *ir.Instr
	phi  *cphiGroup
	off  int64
	lat  uint64
	res  int32 // result register, -1 = none
	// t0/t1 are op-specific: Br taken/not-taken block indices; Jmp
	// target block; Call function index or intrinsic id (t1 == 1
	// marks an intrinsic); CallInd unused.
	t0, t1  int32
	op      ir.Op
	shadow  bool
	shadow2 bool
	pred    ir.Pred
	rmw     ir.RMWKind
}

// cphiMove is one phi's pre-resolved move for a specific predecessor.
type cphiMove struct {
	src     carg
	in      *ir.Instr
	res     int32
	shadow  bool
	shadow2 bool
}

// cphiPred batches the moves a whole phi run performs when entered
// from one predecessor block. bad, if non-nil, is the first phi in
// the run lacking an edge from this predecessor (the run crashes
// there, after performing the complete moves before it).
type cphiPred struct {
	pred  int
	moves []cphiMove
	bad   *ir.Instr
}

// cphiGroup is the pre-batched phi run starting at one instruction
// index. The machine executes the run [i, end) when control lands on
// phi index i, so every phi in a run heads its own group over its
// suffix; control normally enters at the block head.
type cphiGroup struct {
	end   int32 // the pc just past the run
	first *ir.Instr
	preds []cphiPred
}

// cfunc is one compiled function: all blocks flattened into code,
// start mapping block index -> first pc.
type cfunc struct {
	fn    *ir.Func
	code  []cinstr
	start []int32
}

// Program is the immutable compiled form of a module. It holds no
// run-time state and may back any number of Machines concurrently.
type Program struct {
	Mod   *ir.Module
	funcs []*cfunc
	// pages is the pristine image up to the last page that holds a
	// nonzero initialiser word; a page without one is zeroPage, and so
	// is every page past the end.
	pages []*[pageWords]uint64
}

// zeroPage is the pristine content of every page that holds no
// initialiser. It is shared by all machines and never written.
var zeroPage [pageWords]uint64

// page returns page i of the pristine image.
func (p *Program) page(i int32) *[pageWords]uint64 {
	if int(i) < len(p.pages) {
		return p.pages[i]
	}
	return &zeroPage
}

// ProgramStats summarizes a compiled program (reporting/benchmarks).
type ProgramStats struct {
	Funcs  int `json:"funcs"`
	Instrs int `json:"instrs"`
}

// Stats reports the static shape of the compiled program.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{Funcs: len(p.funcs)}
	for _, cf := range p.funcs {
		for i := range cf.code {
			if cf.code[i].op != copFellOff {
				st.Instrs++
			}
		}
	}
	return st
}

// Compile lowers a module into its flat executable form. The module
// is laid out (idempotent) and must not be mutated afterwards; the
// machine never writes to it at run time.
func Compile(mod *ir.Module) *Program {
	mod.Layout()
	p := &Program{Mod: mod, funcs: make([]*cfunc, len(mod.Funcs))}
	for i, fn := range mod.Funcs {
		p.funcs[i] = compileFunc(mod, fn)
	}
	for _, g := range mod.Globals {
		for i, v := range g.Init {
			if v == 0 {
				continue
			}
			w := g.Addr/8 + uint64(i)
			pg := int(w / pageWords)
			for len(p.pages) <= pg {
				p.pages = append(p.pages, &zeroPage)
			}
			if p.pages[pg] == &zeroPage {
				p.pages[pg] = new([pageWords]uint64)
			}
			p.pages[pg][w%pageWords] = v
		}
	}
	return p
}

func lowerArg(o ir.Operand) carg {
	if o.IsConst {
		return carg{v: o.Const, r: -1}
	}
	return carg{r: int32(o.Reg)}
}

func compileFunc(mod *ir.Module, fn *ir.Func) *cfunc {
	cf := &cfunc{fn: fn, start: make([]int32, len(fn.Blocks))}
	total, nargs := 0, 0
	for _, b := range fn.Blocks {
		total += len(b.Instrs) + 1 // + synthetic end-of-block slot
		for i := range b.Instrs {
			nargs += len(b.Instrs[i].Args)
		}
	}
	cf.code = make([]cinstr, 0, total)
	// One contiguous operand pool per function; capacity is exact, so
	// the sub-slices taken below stay valid.
	pool := make([]carg, 0, nargs)
	for bi, b := range fn.Blocks {
		cf.start[bi] = int32(len(cf.code))
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			ci := cinstr{
				op:      in.Op,
				in:      in,
				res:     int32(in.Res),
				pred:    in.Pred,
				rmw:     in.RMW,
				off:     in.Off,
				shadow:  in.HasFlag(ir.FlagShadow),
				shadow2: in.HasFlag(ir.FlagShadow2),
				lat:     cpu.Latency(in.Op),
				t0:      -1,
				t1:      -1,
			}
			base := len(pool)
			for _, a := range in.Args {
				pool = append(pool, lowerArg(a))
			}
			ci.args = pool[base:len(pool):len(pool)]
			switch in.Op {
			case ir.OpCall:
				if id, ok := intrinsicIDs[in.Callee]; ok {
					ci.t0, ci.t1 = int32(id), 1
					ci.lat = intrinsicLat[id]
				} else if fi := mod.FuncIndex(in.Callee); fi >= 0 {
					ci.t0, ci.t1 = int32(fi), 0
					ci.lat = cpu.Latency(ir.OpCall)
				} else {
					ci.op = copBadCall
				}
			case ir.OpCallInd:
				// Indirect calls cost the direct-call frame-push latency.
				ci.lat = cpu.Latency(ir.OpCall)
			case ir.OpBr:
				ci.t0, ci.t1 = int32(in.Blocks[0]), int32(in.Blocks[1])
			case ir.OpJmp:
				ci.t0 = int32(in.Blocks[0])
			case ir.OpPhi:
				ci.phi = compilePhiGroup(b, ii, cf.start[bi])
			}
			cf.code = append(cf.code, ci)
		}
		cf.code = append(cf.code, cinstr{op: copFellOff, res: -1, t0: int32(bi), t1: -1})
	}
	return cf
}

// compilePhiGroup pre-batches the phi run starting at index s of
// block b, whose first pc is base, into per-predecessor move lists.
func compilePhiGroup(b *ir.Block, s int, base int32) *cphiGroup {
	e := s
	for e < len(b.Instrs) && b.Instrs[e].Op == ir.OpPhi {
		e++
	}
	g := &cphiGroup{end: base + int32(e), first: &b.Instrs[s]}
	// Predecessor set: union over the run, in first-appearance order.
	var preds []int
	for i := s; i < e; i++ {
		for _, p := range b.Instrs[i].PhiPreds {
			seen := false
			for _, q := range preds {
				if q == p {
					seen = true
					break
				}
			}
			if !seen {
				preds = append(preds, p)
			}
		}
	}
	for _, p := range preds {
		cp := cphiPred{pred: p}
		for i := s; i < e; i++ {
			in := &b.Instrs[i]
			ki := -1
			for k, q := range in.PhiPreds {
				if q == p {
					ki = k
					break
				}
			}
			if ki < 0 {
				cp.bad = in
				break
			}
			cp.moves = append(cp.moves, cphiMove{
				src:     lowerArg(in.Args[ki]),
				in:      in,
				res:     int32(in.Res),
				shadow:  in.HasFlag(ir.FlagShadow),
				shadow2: in.HasFlag(ir.FlagShadow2),
			})
		}
		g.preds = append(g.preds, cp)
	}
	return g
}

// ProgramCache memoizes compiled programs by module identity, so
// components that build thousands of Machines over one module
// (fault.RunCampaign workers, the serve warm pool) compile once and
// share the artifact. Safe for concurrent use.
type ProgramCache struct {
	mu    sync.Mutex
	progs map[*ir.Module]*Program
}

// NewProgramCache returns an empty cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{progs: make(map[*ir.Module]*Program)}
}

// Get returns the compiled program for mod, compiling it on first
// use.
func (pc *ProgramCache) Get(mod *ir.Module) *Program {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.progs[mod]; ok {
		return p
	}
	p := Compile(mod)
	pc.progs[mod] = p
	return p
}

// Len reports how many programs the cache holds.
func (pc *ProgramCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.progs)
}

// SharedPrograms is the process-wide program cache used by the fault
// campaign engine and the serving layer.
var SharedPrograms = NewProgramCache()
