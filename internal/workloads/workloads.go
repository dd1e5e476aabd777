// Package workloads provides IR implementations of the multithreaded
// benchmarks the HAFT paper evaluates: the seven Phoenix 2.0 programs,
// eight PARSEC 3.0 programs, and the modified "no-sharing" variants of
// wordcount and kmeans (§5.1).
//
// The paper's evaluation never depends on benchmark *outputs* — only
// on execution characteristics: instruction-level parallelism (which
// determines ILR overhead, Table 2), cache-line sharing (which
// determines transaction conflict aborts, Table 3), per-transaction
// memory footprints (capacity aborts), call density (the vips local-
// call anomaly), and the fraction of cycles spent in unprotected
// library code (§5.6 coverage). Each generator here is engineered to
// those published characteristics; the comment on each generator cites
// the targets it reproduces.
//
// All workloads follow one template: every thread runs the same worker
// function, partitions the item range by thread id, synchronizes on a
// barrier, and thread 0 externalizes a checksum. Keeping output
// production on a single thread after a barrier makes runs
// deterministic, which the fault-injection framework requires to
// detect silent data corruptions.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Program is a runnable benchmark instance.
type Program struct {
	// Module is the native (unhardened) program.
	Module *ir.Module
	// Entry is the worker function every thread runs.
	Entry string
	// Args are the worker arguments (global addresses and sizes).
	Args []uint64
	// Blacklist names externally-called functions for the TX pass
	// (§3.3 requires the developer to provide it).
	Blacklist map[string]bool
	// TxThreshold is the per-benchmark transaction-size threshold the
	// paper selects for the best performance/reliability trade-off
	// (§5.3, last paragraph).
	TxThreshold int64
}

// SpecsFor returns thread specs for n threads.
func (p *Program) SpecsFor(n int) []vm.ThreadSpec {
	specs := make([]vm.ThreadSpec, n)
	for i := range specs {
		specs[i] = vm.ThreadSpec{Func: p.Entry, Args: p.Args}
	}
	return specs
}

// Spec describes one benchmark in the registry.
type Spec struct {
	// Name is the identifier used in the paper's figures (histogram,
	// kmeans, kmeans-ns, ...).
	Name string
	// Suite is "phoenix" or "parsec".
	Suite string
	// Build constructs the program. scale >= 1 grows the input; the
	// fault-injection experiments use scale 0 ("smallest input").
	Build func(scale int) *Program
}

var registry []Spec

func register(name, suite string, build func(scale int) *Program) {
	registry = append(registry, Spec{Name: name, Suite: suite, Build: build})
}

// All returns every Phoenix/PARSEC benchmark in evaluation order
// (Phoenix first, as in Figure 6). Case-study applications (§6) are
// registered under the "apps" suite and looked up with ByName.
func All() []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Suite == "phoenix" || s.Suite == "parsec" {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite == "phoenix"
		}
		return false // keep registration order within a suite
	})
	return out
}

// ByName returns the named benchmark spec.
func ByName(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns all benchmark names in evaluation order.
func Names() []string {
	var out []string
	for _, s := range All() {
		out = append(out, s.Name)
	}
	return out
}

// --- construction helpers ---

// builder wraps FuncBuilder with loop and addressing helpers shared by
// all workload generators.
type builder struct {
	*ir.FuncBuilder
	loopID int
}

func newWorker(name string, nparams int) *builder {
	fb := ir.NewFuncBuilder(name, nparams)
	entry := fb.Block("entry")
	fb.SetBlock(entry)
	return &builder{FuncBuilder: fb}
}

// stmtLines returns a closure that advances the builder's source-line
// stamp by one logical statement per call. Generated programs have no
// source file, so the statement index doubles as the line number —
// giving fault forensics a stable "func:line" coordinate for every
// instruction (hardening passes propagate it onto replicas/checks).
func stmtLines(b *builder) func() {
	line := 0
	return func() {
		line++
		b.SetLine(line)
	}
}

// countedLoop emits "for i = lo; i < hi; i += step { body(i) }".
// The body callback may itself create blocks (nested loops); the
// builder's insertion point ends at the loop exit block.
func (b *builder) countedLoop(lo, hi ir.Operand, step int64, body func(i ir.ValueID)) {
	b.loopID++
	id := b.loopID
	head := b.Block(fmt.Sprintf("loop%d", id))
	bodyBlk := b.Block(fmt.Sprintf("body%d", id))
	exit := b.Block(fmt.Sprintf("exit%d", id))

	pre := b.CurBlock()
	b.Jmp(head)

	b.SetBlock(head)
	i := b.Phi([]int{pre, -1}, []ir.Operand{lo, lo}) // latch patched below
	c := b.Cmp(ir.PredLT, ir.Reg(i), hi)
	b.Br(ir.Reg(c), bodyBlk, exit)

	b.SetBlock(bodyBlk)
	body(i)
	latch := b.CurBlock()
	inext := b.Add(ir.Reg(i), ir.ConstInt(step))
	b.Jmp(head)

	// Patch the phi's latch edge.
	phi := &b.Func().Blocks[head].Instrs[0]
	phi.PhiPreds[1] = latch
	phi.Args[1] = ir.Reg(inext)

	b.SetBlock(exit)
}

// addr computes base + i*stride (+off) as registers.
func (b *builder) addr(base ir.Operand, i ir.ValueID, stride int64, off int64) ir.ValueID {
	s := b.Mul(ir.Reg(i), ir.ConstInt(stride))
	a := b.Add(base, ir.Reg(s))
	if off != 0 {
		a = b.Add(ir.Reg(a), ir.ConstInt(off))
	}
	return a
}

// threadRange emits the [lo,hi) partition of n items for this thread
// and returns (tid, lo, hi). Partition boundaries are rounded down to
// 8-item (one cache line of words) multiples so adjacent threads never
// write the same line — the layout discipline real data-parallel code
// uses to avoid false sharing; the wordcount/kmeans shared variants
// create their sharing through designated shared structures instead.
func (b *builder) threadRange(n ir.Operand) (tid, lo, hi ir.ValueID) {
	tid = b.Call("thread.id")
	nt := b.Call("thread.count")
	t1 := b.Mul(ir.Reg(tid), n)
	lo0 := b.Div(ir.Reg(t1), ir.Reg(nt))
	lo = b.And(ir.Reg(lo0), ir.ConstInt(^int64(7)))
	tp1 := b.Add(ir.Reg(tid), ir.ConstInt(1))
	t2 := b.Mul(ir.Reg(tp1), n)
	hi0 := b.Div(ir.Reg(t2), ir.Reg(nt))
	hiAligned := b.And(ir.Reg(hi0), ir.ConstInt(^int64(7)))
	// The last thread takes the ragged tail.
	isLast := b.Cmp(ir.PredEQ, ir.Reg(tp1), ir.Reg(nt))
	hi = b.Select(ir.Reg(isLast), n, ir.Reg(hiAligned))
	return tid, lo, hi
}

// finishOnThread0 emits: barrier; if tid != 0 return; else run emit()
// and return. The emit callback externalizes results.
func (b *builder) finishOnThread0(tid ir.ValueID, barAddr ir.Operand, emit func()) {
	b.Call("barrier.wait", barAddr, ir.Reg(b.Call("thread.count")))
	emitBlk := b.Block("emit")
	done := b.Block("done")
	z := b.Cmp(ir.PredEQ, ir.Reg(tid), ir.ConstInt(0))
	b.Br(ir.Reg(z), emitBlk, done)
	b.SetBlock(emitBlk)
	emit()
	b.Jmp(done)
	b.SetBlock(done)
	b.Ret()
}

// lcg emits one step of a 64-bit linear congruential generator:
// next = cur*6364136223846793005 + 1442695040888963407.
func (b *builder) lcg(cur ir.ValueID) ir.ValueID {
	m := b.Mul(ir.Reg(cur), ir.ConstInt(6364136223846793005))
	return b.Add(ir.Reg(m), ir.ConstInt(1442695040888963407))
}

// program assembles a module with the worker plus standard globals and
// returns the Program. Callers add extra globals/functions before.
func finishProgram(m *ir.Module, worker *ir.Func, args []uint64, threshold int64, blacklist ...string) *Program {
	m.AddFunc(worker)
	if err := ir.Verify(m); err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", worker.Name, err))
	}
	bl := map[string]bool{worker.Name: true}
	for _, x := range blacklist {
		bl[x] = true
	}
	return &Program{
		Module:      m,
		Entry:       worker.Name,
		Blacklist:   bl,
		Args:        args,
		TxThreshold: threshold,
	}
}

// sz scales a base size: scale 0 halves twice (the "smallest input"
// for fault injection), scale k multiplies by k.
func sz(base int64, scale int) int64 {
	switch {
	case scale <= 0:
		v := base / 4
		if v < 8 {
			v = 8
		}
		return v
	default:
		return base * int64(scale)
	}
}
