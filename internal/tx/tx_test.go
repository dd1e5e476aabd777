package tx

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

func vmQuiet() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

const loopSrc = `
global c bytes=8
func foo(1) {
entry:
  v1 = load v0
  jmp loop
loop:
  v2 = phi v1 [entry], v3 [loop]
  v3 = add v2, #1
  v4 = cmp lt v3, #1000
  br v4, loop, end
end:
  store v0, v3
  ret v3
}
`

func TestFigure2Transactification(t *testing.T) {
	m := ir.MustParse(loopSrc)
	Apply(m, Options{Threshold: 100})
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := m.Func("foo")
	text := f.String()
	for _, want := range []string{"tx.begin", "tx.end", "tx.cond_split", "tx.counter_inc"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %s:\n%s", want, text)
		}
	}
	// The counter increment must be at the latch, before the back edge,
	// and equal the loop body length (phi+split+inc+add+cmp+br as
	// emitted: the longest path from header to latch).
	loop := f.Blocks[blockIndex(f, "loop")]
	var incArg int64 = -1
	for i := range loop.Instrs {
		in := &loop.Instrs[i]
		if in.Op == ir.OpCall && in.Callee == "tx.counter_inc" {
			incArg = int64(in.Args[0].Const)
		}
	}
	if incArg <= 0 {
		t.Fatalf("no counter increment in latch:\n%s", text)
	}
	if incArg < 4 || incArg > 8 {
		t.Errorf("counter increment %d out of expected range:\n%s", incArg, text)
	}
}

func TestSemanticPreservation(t *testing.T) {
	m := ir.MustParse(loopSrc)
	m.Layout()
	addr := m.Global("c").Addr

	run := func(mod *ir.Module) (uint64, vm.Status) {
		mod.Layout()
		mach := vm.New(mod, 1, vmQuiet())
		mach.Poke(addr, 123)
		st := mach.Run(vm.ThreadSpec{Func: "foo", Args: []uint64{addr}})
		return mach.Peek(addr), st
	}

	wantMem, st := run(m.Clone())
	if st != vm.StatusOK {
		t.Fatalf("native: %v", st)
	}
	for _, thr := range []int64{50, 250, 1000, 5000} {
		h := m.Clone()
		Apply(h, Options{Threshold: thr, LocalCalls: true})
		gotMem, st := run(h)
		if st != vm.StatusOK {
			t.Fatalf("thr=%d: status %v", thr, st)
		}
		if gotMem != wantMem {
			t.Fatalf("thr=%d: mem=%d want %d", thr, gotMem, wantMem)
		}
	}
}

func TestThresholdControlsTransactionCount(t *testing.T) {
	counts := map[int64]uint64{}
	for _, thr := range []int64{50, 1000} {
		m := ir.MustParse(loopSrc)
		Apply(m, Options{Threshold: thr})
		m.Layout()
		mach := vm.New(m, 1, vmQuiet())
		mach.Run(vm.ThreadSpec{Func: "foo", Args: []uint64{m.Global("c").Addr}})
		if mach.Status() != vm.StatusOK {
			t.Fatalf("thr=%d: %v", thr, mach.Status())
		}
		counts[thr] = mach.HTM.Stats.Committed
	}
	if counts[50] <= counts[1000] {
		t.Fatalf("smaller threshold must create more transactions: %v", counts)
	}
	if counts[50] < 20 {
		t.Fatalf("threshold 50 over a 1000-iteration loop should commit many transactions, got %d", counts[50])
	}
}

func TestExternalCallsGetBoundaries(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = call @malloc #64
  store v0, #1
  ret
}
`
	m := ir.MustParse(src)
	Apply(m, DefaultOptions())
	text := m.Func("main").String()
	// The malloc call ends the entry transaction, which the peephole
	// drops because it is empty; a new one begins after the call and
	// ends before ret.
	if got := strings.Count(text, "tx.end"); got != 1 {
		t.Errorf("tx.end count = %d, want 1:\n%s", got, text)
	}
	if got := strings.Count(text, "tx.begin"); got != 1 {
		t.Errorf("tx.begin count = %d, want 1:\n%s", got, text)
	}
	if !strings.Contains(text, "call @malloc #64\n  call @tx.begin") {
		t.Errorf("no transaction begins after the external call:\n%s", text)
	}
	mach := vm.New(m, 1, vmQuiet())
	if st := mach.Run(vm.ThreadSpec{Func: "main"}); st != vm.StatusOK {
		t.Fatalf("run: %v (%s)", st, mach.Stats().CrashReason)
	}
}

func TestLocalCallOptimization(t *testing.T) {
	src := `
func tiny(1) local {
entry:
  v1 = add v0, #1
  ret v1
}
func main(0) {
entry:
  v2 = add #1, #2
  v0 = call @tiny v2
  v3 = add v0, #3
  v1 = call @tiny v3
  v4 = add v1, #4
  out v4
  ret
}
`
	withOpt := ir.MustParse(src)
	Apply(withOpt, Options{Threshold: 1000, LocalCalls: true})
	withoutOpt := ir.MustParse(src)
	Apply(withoutOpt, Options{Threshold: 1000, LocalCalls: false})

	// With the optimization, the transaction spans both tiny calls and
	// ends only once, before the out; without it, every call ends the
	// transaction around it.
	wText := withOpt.Func("main").String()
	woText := withoutOpt.Func("main").String()
	if strings.Count(wText, "tx.end") != 1 {
		t.Errorf("local-call optimized main has extra boundaries:\n%s", wText)
	}
	if strings.Count(woText, "tx.end") != 3 { // both tiny calls + out
		t.Errorf("conservative main should end tx around each call:\n%s", woText)
	}
	if !strings.Contains(wText, "tx.counter_inc") {
		t.Errorf("optimized call sites must increment the counter:\n%s", wText)
	}
	// tiny itself: cond_split entry with opt, begin/end without.
	if !strings.Contains(withOpt.Func("tiny").String(), "tx.cond_split") {
		t.Errorf("local callee must use cond_split at entry:\n%s", withOpt.Func("tiny"))
	}
	if !strings.Contains(withoutOpt.Func("tiny").String(), "tx.begin") {
		t.Errorf("non-optimized callee must begin its own tx:\n%s", withoutOpt.Func("tiny"))
	}

	// Both run correctly.
	for _, m := range []*ir.Module{withOpt, withoutOpt} {
		mach := vm.New(m, 1, vmQuiet())
		if st := mach.Run(vm.ThreadSpec{Func: "main"}); st != vm.StatusOK {
			t.Fatalf("run: %v", st)
		}
		if mach.Output()[0] != 12 {
			t.Fatalf("output = %v, want [12]", mach.Output())
		}
	}
}

func TestBlacklistDisablesLocalTreatment(t *testing.T) {
	src := `
func tiny(1) local {
entry:
  v1 = add v0, #1
  ret v1
}
func main(0) {
entry:
  v0 = call @tiny #1
  ret
}
`
	m := ir.MustParse(src)
	Apply(m, Options{Threshold: 1000, LocalCalls: true, Blacklist: map[string]bool{"tiny": true}})
	if !strings.Contains(m.Func("tiny").String(), "tx.begin") {
		t.Errorf("blacklisted function must open its own transaction:\n%s", m.Func("tiny"))
	}
}

func TestLockElisionSubstitution(t *testing.T) {
	src := `
global lk bytes=8
global g bytes=8
func main(2) {
entry:
  call @lock.acquire v0
  v2 = load v1
  v3 = add v2, #1
  store v1, v3
  call @lock.release v0
  ret
}
`
	elided := ir.MustParse(src)
	Apply(elided, Options{Threshold: 1000, LockElision: true})
	text := elided.Func("main").String()
	if !strings.Contains(text, "lock.acquire_elide") || !strings.Contains(text, "lock.release_elide") {
		t.Fatalf("locks not elided:\n%s", text)
	}
	if strings.Contains(text, "@lock.acquire ") {
		t.Fatalf("original lock call still present:\n%s", text)
	}

	plain := ir.MustParse(src)
	Apply(plain, Options{Threshold: 1000, LockElision: false})
	ptext := plain.Func("main").String()
	if !strings.Contains(ptext, "@lock.acquire") {
		t.Fatalf("noelision build lost the lock:\n%s", ptext)
	}

	// Both must compute g=1.
	for _, m := range []*ir.Module{elided, plain} {
		m.Layout()
		mach := vm.New(m, 1, vmQuiet())
		st := mach.Run(vm.ThreadSpec{Func: "main", Args: []uint64{m.Global("lk").Addr, m.Global("g").Addr}})
		if st != vm.StatusOK {
			t.Fatalf("run: %v (%s)", st, mach.Stats().CrashReason)
		}
		if got := mach.Peek(m.Global("g").Addr); got != 1 {
			t.Fatalf("g = %d, want 1", got)
		}
	}
}

func TestPeepholeRemovesEmptyTransactions(t *testing.T) {
	// Two adjacent external calls leave only begin;end pairs with
	// nothing between them.
	src := `
func main(0) {
entry:
  v0 = call @malloc #64
  v1 = call @malloc #64
  ret
}
`
	m := ir.MustParse(src)
	Apply(m, Options{Threshold: 1000})
	if text := m.Func("main").String(); strings.Contains(text, "tx.") {
		t.Fatalf("peephole kept an empty transaction:\n%s", text)
	}
}

func TestOutGetsBoundaries(t *testing.T) {
	src := `
func main(0) {
entry:
  out #42
  ret
}
`
	m := ir.MustParse(src)
	Apply(m, DefaultOptions())
	mach := vm.New(m, 1, vmQuiet())
	if st := mach.Run(vm.ThreadSpec{Func: "main"}); st != vm.StatusOK {
		t.Fatalf("run: %v", st)
	}
	if got := mach.Output(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("output = %v", got)
	}
	// No unfriendly aborts: the out must sit outside any transaction.
	if mach.HTM.Stats.Aborted[0] != 0 && mach.HTM.Stats.AbortRate() > 0 {
		t.Fatalf("unexpected aborts: %v", mach.HTM.Stats.Aborted)
	}
}

func TestUnprotectedFunctionUntouched(t *testing.T) {
	src := `
func lib(0) unprotected {
entry:
  ret #1
}
func main(0) {
entry:
  v0 = call @lib
  v1 = add v0, #1
  out v1
  ret
}
`
	m := ir.MustParse(src)
	Apply(m, DefaultOptions())
	if strings.Contains(m.Func("lib").String(), "tx.") {
		t.Fatalf("unprotected function transactified:\n%s", m.Func("lib"))
	}
	// The call to it must have boundaries.
	if !strings.Contains(m.Func("main").String(), "call @lib\n  call @tx.begin") {
		t.Fatalf("call to unprotected function lacks boundaries:\n%s", m.Func("main"))
	}
}

// blockIndex returns the index of f's block called name, or -1.
func blockIndex(f *ir.Func, name string) int {
	for i, b := range f.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}
