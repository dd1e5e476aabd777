package vm

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/ir"
)

func quietCfg() Config {
	cfg := DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 0
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

func run1(t *testing.T, src, entry string, args ...uint64) *Machine {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{Func: entry, Args: args})
	return mach
}

func TestArithmeticAndOutput(t *testing.T) {
	mach := run1(t, `
func main(0) {
entry:
  v0 = add #2, #3
  v1 = mul v0, #7
  v2 = sub v1, #5
  out v2
  v3 = sitofp v2
  v4 = fmul v3, #0.5
  v5 = fptosi v4
  out v5
  ret
}
`, "main")
	if mach.Status() != StatusOK {
		t.Fatalf("status = %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	out := mach.Output()
	if len(out) != 2 || out[0] != 30 || out[1] != 15 {
		t.Fatalf("output = %v, want [30 15]", out)
	}
}

func TestLoopAndGlobals(t *testing.T) {
	src := `
global acc bytes=8
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v1 [loop]
  v1 = add v0, #1
  v2 = cmp lt v1, #100
  br v2, loop, done
done:
  out v1
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusOK || mach.Output()[0] != 100 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
	if mach.Stats().DynInstrs < 300 {
		t.Fatalf("DynInstrs = %d, want ~500", mach.Stats().DynInstrs)
	}
}

func TestCallsAndFrames(t *testing.T) {
	src := `
func sq(1) frame=8 {
entry:
  v1 = frameaddr 0
  store v1, v0
  v2 = load v1
  v3 = mul v2, v2
  ret v3
}
func main(0) {
entry:
  v0 = call @sq #9
  out v0
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusOK || mach.Output()[0] != 81 {
		t.Fatalf("status=%v out=%v (%s)", mach.Status(), mach.Output(), mach.Stats().CrashReason)
	}
}

func TestRecursionStackOverflowCrashes(t *testing.T) {
	src := `
func inf(1) frame=64 {
entry:
  v1 = call @inf v0
  ret v1
}
func main(0) {
entry:
  v0 = call @inf #1
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusCrashed {
		t.Fatalf("status = %v, want crashed", mach.Status())
	}
}

func TestInvalidMemoryCrashes(t *testing.T) {
	cases := []string{
		"func main(0) {\nentry:\n  v0 = load #0\n  ret\n}",         // null deref
		"func main(0) {\nentry:\n  store #12, #1\n  ret\n}",        // misaligned
		"func main(0) {\nentry:\n  v0 = load #999999999\n  ret\n}", // out of range
		"func main(0) {\nentry:\n  v0 = div #1, #0\n  ret\n}",      // div by zero
		"func main(0) {\nentry:\n  trap\n}",                        // trap
	}
	for _, src := range cases {
		mach := run1(t, src, "main")
		if mach.Status() != StatusCrashed {
			t.Errorf("status = %v for %q, want crashed", mach.Status(), src)
		}
	}
}

func TestIndirectCall(t *testing.T) {
	src := `
func a(0) {
entry:
  ret #11
}
func b(0) {
entry:
  ret #22
}
func main(1) {
entry:
  v1 = callind v0
  out v1
  ret
}
`
	m := ir.MustParse(src)
	bIdx := uint64(m.FuncIndex("b"))
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{Func: "main", Args: []uint64{bIdx}})
	if mach.Status() != StatusOK || mach.Output()[0] != 22 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
	// Wild pointer crashes.
	mach2 := New(ir.MustParse(src), 1, quietCfg())
	mach2.Run(ThreadSpec{Func: "main", Args: []uint64{1 << 40}})
	if mach2.Status() != StatusCrashed {
		t.Fatalf("wild indirect call: status=%v", mach2.Status())
	}
}

func TestAtomicsAndThreads(t *testing.T) {
	// 4 threads each atomically add 1000 to a counter; main (thread 0)
	// prints it after a barrier.
	src := `
global counter bytes=8
global bar bytes=8 align=64
func worker(2) {
entry:
  jmp loop
loop:
  v2 = phi #0 [entry], v3 [loop]
  v3 = add v2, #1
  v4 = armw add v0, #1
  v5 = cmp lt v3, #1000
  br v5, loop, done
done:
  v6 = call @barrier.wait v1, #4
  v7 = call @thread.id
  v8 = cmp eq v7, #0
  br v8, emit, exit
emit:
  v9 = aload v0
  out v9
  jmp exit
exit:
  ret
}
`
	m := ir.MustParse(src)
	cAddr := m.Global("counter")
	bAddr := m.Global("bar")
	m.Layout()
	mach := New(m, 4, quietCfg())
	specs := make([]ThreadSpec, 4)
	for i := range specs {
		specs[i] = ThreadSpec{Func: "worker", Args: []uint64{cAddr.Addr, bAddr.Addr}}
	}
	mach.Run(specs...)
	if mach.Status() != StatusOK {
		t.Fatalf("status = %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	if got := mach.Output(); len(got) != 1 || got[0] != 4000 {
		t.Fatalf("output = %v, want [4000]", got)
	}
}

func TestLocksProvideMutualExclusion(t *testing.T) {
	// Non-atomic read-modify-write under a lock must not lose updates.
	src := `
global counter bytes=8
global lk bytes=8 align=64
global bar bytes=8 align=64
func worker(3) {
entry:
  jmp loop
loop:
  v3 = phi #0 [entry], v4 [loop]
  v4 = add v3, #1
  call @lock.acquire v1
  v5 = load v0
  v6 = add v5, #1
  store v0, v6
  call @lock.release v1
  v7 = cmp lt v4, #500
  br v7, loop, done
done:
  v8 = call @barrier.wait v2, #3
  v9 = call @thread.id
  v10 = cmp eq v9, #0
  br v10, emit, exit
emit:
  v11 = load v0
  out v11
  jmp exit
exit:
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	args := []uint64{m.Global("counter").Addr, m.Global("lk").Addr, m.Global("bar").Addr}
	mach := New(m, 3, quietCfg())
	mach.Run(ThreadSpec{"worker", args}, ThreadSpec{"worker", args}, ThreadSpec{"worker", args})
	if mach.Status() != StatusOK {
		t.Fatalf("status = %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	if got := mach.Output(); len(got) != 1 || got[0] != 1500 {
		t.Fatalf("output = %v, want [1500]", got)
	}
}

func TestReleaseOfUnheldLockCrashes(t *testing.T) {
	src := `
global lk bytes=8
func main(0) {
entry:
  call @lock.release #4096
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusCrashed {
		t.Fatalf("status = %v, want crashed", mach.Status())
	}
}

func TestTransactionCommitAndRollback(t *testing.T) {
	// Store inside a transaction, detect a "fault" (explicit check
	// failure forced by comparing different values), watch it retry
	// and eventually give up... here the check always fails so the
	// program must end ILR-detected after 3 retries + fallback.
	src := `
global g bytes=8
func main(1) {
entry:
  call @tx.begin
  store v0, #7
  v1 = cmp ne #1, #2
  br v1, bad, good
bad:
  call @ilr.fail
  jmp good
good:
  call @tx.end
  v2 = load v0
  out v2
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	addr := m.Global("g").Addr
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{"main", []uint64{addr}})
	// The check fails every attempt; after MaxRetries the fallback
	// executes non-transactionally and ilr.fail terminates the run.
	if mach.Status() != StatusILRDetected {
		t.Fatalf("status = %v, want ilr-detected", mach.Status())
	}
	if mach.Stats().ExplicitAborts != uint64(quietCfg().MaxRetries)+1 {
		t.Fatalf("explicit aborts = %d, want %d", mach.Stats().ExplicitAborts, quietCfg().MaxRetries+1)
	}
	// All transactional attempts must have discarded the store; only
	// the final non-transactional fallback run wrote it, which is the
	// fail-stop-with-partial-state semantics the paper describes for
	// exhausted retries (§3).
	if mach.HTM.Stats.FallbackRuns != 1 {
		t.Fatalf("fallback runs = %d, want 1", mach.HTM.Stats.FallbackRuns)
	}
	if mach.Peek(addr) != 7 {
		t.Fatalf("fallback store missing: %d", mach.Peek(addr))
	}
}

func TestTransactionCommitsWrites(t *testing.T) {
	src := `
global g bytes=8
func main(1) {
entry:
  call @tx.begin
  store v0, #99
  call @tx.end
  v1 = load v0
  out v1
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	addr := m.Global("g").Addr
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{"main", []uint64{addr}})
	if mach.Status() != StatusOK || mach.Output()[0] != 99 || mach.Peek(addr) != 99 {
		t.Fatalf("status=%v out=%v mem=%d", mach.Status(), mach.Output(), mach.Peek(addr))
	}
	if mach.HTM.Stats.Committed != 1 {
		t.Fatalf("committed = %d, want 1", mach.HTM.Stats.Committed)
	}
	if mach.Coverage() <= 0 {
		t.Fatal("coverage should be positive")
	}
}

func TestIlrFailOutsideTxTerminates(t *testing.T) {
	src := `
func main(0) {
entry:
  call @ilr.fail
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusILRDetected {
		t.Fatalf("status = %v, want ilr-detected", mach.Status())
	}
}

func TestDisableRecoveryMakesIlrFailFatal(t *testing.T) {
	src := `
func main(0) {
entry:
  call @tx.begin
  call @ilr.fail
  call @tx.end
  ret
}
`
	m := ir.MustParse(src)
	cfg := quietCfg()
	cfg.DisableRecovery = true
	mach := New(m, 1, cfg)
	mach.Run(ThreadSpec{Func: "main"})
	if mach.Status() != StatusILRDetected {
		t.Fatalf("status = %v, want ilr-detected", mach.Status())
	}
}

func TestCondSplitSplitsTransactions(t *testing.T) {
	// A loop of 600 iterations with counter increments of 10 and a
	// split threshold of 1000 must produce ~6 transactions.
	src := `
func main(0) {
entry:
  call @tx.begin
  jmp loop
loop:
  v0 = phi #0 [entry], v1 [loop]
  call @tx.cond_split #1000
  call @tx.counter_inc #10
  v1 = add v0, #1
  v2 = cmp lt v1, #600
  br v2, loop, done
done:
  call @tx.end
  out v1
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusOK || mach.Output()[0] != 600 {
		t.Fatalf("status=%v out=%v", mach.Status(), mach.Output())
	}
	got := mach.HTM.Stats.Committed
	if got < 5 || got > 8 {
		t.Fatalf("committed transactions = %d, want ~6", got)
	}
}

func TestOutInsideTxFallsBackAndEmitsOnce(t *testing.T) {
	src := `
func main(0) {
entry:
  call @tx.begin
  v0 = add #20, #22
  out v0
  call @tx.end
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusOK {
		t.Fatalf("status = %v", mach.Status())
	}
	if got := mach.Output(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("output = %v, want exactly one 42", got)
	}
	// The unfriendly instruction must have aborted the transaction
	// through the full retry budget.
	if mach.HTM.Stats.Aborted[htm.CauseOther] == 0 {
		t.Fatal("expected unfriendly-instruction aborts")
	}
	if mach.HTM.Stats.FallbackRuns == 0 {
		t.Fatal("expected a fallback run")
	}
}

func TestFaultInjectionHook(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = add #1, #1
  v1 = add v0, #1
  out v1
  ret
}
`
	m := ir.MustParse(src)
	mach := New(m, 1, quietCfg())
	plan := &FaultPlan{TargetIndex: 0, Mask: 0xFF}
	mach.SetFaultPlan(plan)
	mach.Run(ThreadSpec{Func: "main"})
	if !plan.Injected {
		t.Fatal("fault not injected")
	}
	// v0 = 2 ^ 0xFF = 253; v1 = 254.
	if got := mach.Output()[0]; got != 254 {
		t.Fatalf("output = %d, want 254 (corrupted)", got)
	}
	if plan.Where == "" {
		t.Fatal("Where not recorded")
	}
}

func TestLockElisionRunsCriticalSectionTransactionally(t *testing.T) {
	src := `
global lk bytes=8
global g bytes=8
func main(2) {
entry:
  call @tx.begin
  call @lock.acquire_elide v0
  v2 = load v1
  v3 = add v2, #1
  store v1, v3
  call @lock.release_elide v0
  call @tx.end
  v4 = load v1
  out v4
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{"main", []uint64{m.Global("lk").Addr, m.Global("g").Addr}})
	if mach.Status() != StatusOK || mach.Output()[0] != 1 {
		t.Fatalf("status=%v out=%v (%s)", mach.Status(), mach.Output(), mach.Stats().CrashReason)
	}
	// The lock must never have been really taken.
	if len(mach.locks) != 0 {
		t.Fatal("elided lock was actually acquired")
	}
}

func TestElisionFallsBackToRealLockOutsideTx(t *testing.T) {
	src := `
global lk bytes=8
global g bytes=8
func main(2) {
entry:
  call @lock.acquire_elide v0
  store v1, #5
  call @lock.release_elide v0
  v2 = load v1
  out v2
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{"main", []uint64{m.Global("lk").Addr, m.Global("g").Addr}})
	if mach.Status() != StatusOK || mach.Output()[0] != 5 {
		t.Fatalf("status=%v out=%v (%s)", mach.Status(), mach.Output(), mach.Stats().CrashReason)
	}
}

func TestMallocProvidesUsableMemory(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = call @malloc #64
  store v0, #123
  v1 = load v0
  out v1
  ret
}
`
	mach := run1(t, src, "main")
	if mach.Status() != StatusOK || mach.Output()[0] != 123 {
		t.Fatalf("status=%v out=%v (%s)", mach.Status(), mach.Output(), mach.Stats().CrashReason)
	}
}

func TestConflictingTransactionsSerializeCorrectly(t *testing.T) {
	// Two threads transactionally increment the same location 200
	// times each; conflicts must retry, never lose an update, and the
	// final value must be 400.
	src := `
global g bytes=8
global bar bytes=8 align=64
func worker(2) {
entry:
  jmp loop
loop:
  v2 = phi #0 [entry], v3 [loop]
  v3 = add v2, #1
  call @tx.begin
  v4 = load v0
  v5 = add v4, #1
  store v0, v5
  call @tx.end
  v6 = cmp lt v3, #200
  br v6, loop, done
done:
  v7 = call @barrier.wait v1, #2
  v8 = call @thread.id
  v9 = cmp eq v8, #0
  br v9, emit, exit
emit:
  v10 = load v0
  out v10
  jmp exit
exit:
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	args := []uint64{m.Global("g").Addr, m.Global("bar").Addr}
	mach := New(m, 2, quietCfg())
	mach.Run(ThreadSpec{"worker", args}, ThreadSpec{"worker", args})
	if mach.Status() != StatusOK {
		t.Fatalf("status = %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	got := mach.Output()
	if len(got) != 1 || got[0] != 400 {
		t.Fatalf("output = %v, want [400]; aborts=%v fallbacks=%d",
			got, mach.HTM.Stats.Aborted, mach.HTM.Stats.FallbackRuns)
	}
}

func TestHangDetection(t *testing.T) {
	src := `
func main(0) {
entry:
  jmp entry2
entry2:
  jmp entry
}
`
	m := ir.MustParse(src)
	cfg := quietCfg()
	cfg.MaxDynInstrs = 10000
	mach := New(m, 1, cfg)
	mach.Run(ThreadSpec{Func: "main"})
	if mach.Status() != StatusHung {
		t.Fatalf("status = %v, want hung", mach.Status())
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two threads acquire two locks in opposite order with a barrier
	// in between to force the interleaving.
	src := `
global l1 bytes=8
global l2 bytes=8 align=64
global bar bytes=8 align=64
func w1(3) {
entry:
  call @lock.acquire v0
  v3 = call @barrier.wait v2, #2
  call @lock.acquire v1
  ret
}
func w2(3) {
entry:
  call @lock.acquire v1
  v3 = call @barrier.wait v2, #2
  call @lock.acquire v0
  ret
}
`
	m := ir.MustParse(src)
	m.Layout()
	args := []uint64{m.Global("l1").Addr, m.Global("l2").Addr, m.Global("bar").Addr}
	mach := New(m, 2, quietCfg())
	mach.Run(ThreadSpec{"w1", args}, ThreadSpec{"w2", args})
	if mach.Status() != StatusCrashed {
		t.Fatalf("status = %v, want crashed (deadlock)", mach.Status())
	}
}

func TestAdaptiveThresholdShrinksOnAborts(t *testing.T) {
	// A loop whose transactions always overflow the write set: with a
	// static oversized threshold it aborts continually; with adaptive
	// thresholds the per-core limit shrinks until transactions fit.
	src := `
global buf bytes=65536 align=64
func main(0) {
entry:
  call @tx.begin
  jmp loop
loop:
  v0 = phi #0 [entry], v1 [loop]
  call @tx.cond_split #100000
  call @tx.counter_inc #12
  v2 = and v0, #1023
  v3 = mul v2, #64
  v4 = add v3, #4096
  store v4, v0
  v1 = add v0, #1
  v5 = cmp lt v1, #20000
  br v5, loop, done
done:
  call @tx.end
  out v1
  ret
}
`
	run := func(adaptive bool) *Machine {
		m := ir.MustParse(src)
		cfg := quietCfg()
		cfg.AdaptiveThreshold = adaptive
		mach := New(m, 1, cfg)
		mach.Run(ThreadSpec{Func: "main"})
		if mach.Status() != StatusOK || mach.Output()[0] != 20000 {
			t.Fatalf("adaptive=%v: status=%v out=%v", adaptive, mach.Status(), mach.Output())
		}
		return mach
	}
	st := run(false)
	ad := run(true)
	t.Logf("static:   coverage=%.1f%% wasted=%d fallbacks=%d commits=%d",
		100*st.Coverage(), st.HTM.Stats.WastedCycles, st.HTM.Stats.FallbackRuns, st.HTM.Stats.Committed)
	t.Logf("adaptive: coverage=%.1f%% wasted=%d fallbacks=%d commits=%d",
		100*ad.Coverage(), ad.HTM.Stats.WastedCycles, ad.HTM.Stats.FallbackRuns, ad.HTM.Stats.Committed)
	// Adaptation must stabilize on fitting transactions: far more
	// commits, fewer fallback episodes, higher protected coverage.
	if ad.Coverage() <= st.Coverage() {
		t.Errorf("adaptive coverage %.1f%% not above static %.1f%%",
			100*ad.Coverage(), 100*st.Coverage())
	}
	if ad.HTM.Stats.Committed <= st.HTM.Stats.Committed {
		t.Errorf("adaptive commits %d not above static %d",
			ad.HTM.Stats.Committed, st.HTM.Stats.Committed)
	}
}

func TestTracerObservesRegisterWrites(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = add #1, #2
  v1 = mul v0, #5
  out v1
  ret
}
`
	m := ir.MustParse(src)
	mach := New(m, 1, quietCfg())
	var events []TraceEvent
	mach.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	mach.Run(ThreadSpec{Func: "main"})
	if mach.Status() != StatusOK {
		t.Fatalf("status %v", mach.Status())
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2 (add, mul)", len(events))
	}
	if events[0].Op != ir.OpAdd || events[0].Value != 3 || events[0].Index != 0 {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Op != ir.OpMul || events[1].Value != 15 || events[1].Index != 1 {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if events[1].Func != "main" || events[1].Block != "entry" {
		t.Fatalf("location = %s/%s", events[1].Func, events[1].Block)
	}
	// The trace index numbering matches FaultPlan targeting: injecting
	// at index 1 must corrupt the mul's result.
	m2 := ir.MustParse(src)
	mach2 := New(m2, 1, quietCfg())
	mach2.SetFaultPlan(&FaultPlan{TargetIndex: 1, Mask: 0xF0})
	mach2.Run(ThreadSpec{Func: "main"})
	if got := mach2.Output()[0]; got != 15^0xF0 {
		t.Fatalf("fault at trace index 1: output %d, want %d", got, 15^0xF0)
	}
}

func TestLockFIFOHandoff(t *testing.T) {
	// Three threads funnel through one lock; FIFO handoff must give
	// every thread its turn and the count must be exact.
	src := `
global lk bytes=8
global n bytes=8 align=64
global bar bytes=8 align=64
func main(0) {
entry:
  call @lock.acquire #4096
  v0 = load #4160
  v1 = add v0, #1
  store #4160, v1
  call @lock.release #4096
  v2 = call @barrier.wait #4224, #3
  v3 = call @thread.id
  v4 = cmp eq v3, #0
  br v4, emit, done
emit:
  v5 = load #4160
  out v5
  jmp done
done:
  ret
}
`
	m := ir.MustParse(src)
	mach := New(m, 3, quietCfg())
	mach.Run(ThreadSpec{Func: "main"}, ThreadSpec{Func: "main"}, ThreadSpec{Func: "main"})
	if mach.Status() != StatusOK || mach.Output()[0] != 3 {
		t.Fatalf("status=%v out=%v (%s)", mach.Status(), mach.Output(), mach.Stats().CrashReason)
	}
}

func TestCondSplitRestartsProtectionInFallback(t *testing.T) {
	// Force the retry budget to exhaust (an always-failing check), fall
	// back, and confirm a later cond_split re-establishes transactions.
	src := `
global g bytes=8
func main(0) {
entry:
  call @tx.begin
  v0 = cmp ne #1, #2
  br v0, bad, good
bad:
  call @ilr.fail
  jmp good
good:
  jmp loop
loop:
  v1 = phi #0 [good], v2 [loop]
  call @tx.cond_split #50
  call @tx.counter_inc #10
  v2 = add v1, #1
  v3 = cmp lt v2, #100
  br v3, loop, done
done:
  call @tx.end
  out v2
  ret
}
`
	m := ir.MustParse(src)
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{Func: "main"})
	// The bad check sits before the loop: after the retries exhaust,
	// execution falls back, re-runs the check non-transactionally, and
	// ilr.fail terminates... unless the check block is only reached
	// transactionally. Here it IS re-executed in fallback, so the run
	// ends ILR-detected — but the cond_split path must not have
	// crashed the machine.
	if mach.Status() != StatusILRDetected {
		t.Fatalf("status=%v", mach.Status())
	}
	// Now the same program without the failing check: cond_split must
	// create many transactions.
	src2 := `
func main(0) {
entry:
  call @tx.begin
  jmp loop
loop:
  v1 = phi #0 [entry], v2 [loop]
  call @tx.cond_split #50
  call @tx.counter_inc #10
  v2 = add v1, #1
  v3 = cmp lt v2, #100
  br v3, loop, done
done:
  call @tx.end
  out v2
  ret
}
`
	m2 := ir.MustParse(src2)
	mach2 := New(m2, 1, quietCfg())
	mach2.Run(ThreadSpec{Func: "main"})
	if mach2.Status() != StatusOK || mach2.Output()[0] != 100 {
		t.Fatalf("status=%v out=%v", mach2.Status(), mach2.Output())
	}
	if mach2.HTM.Stats.Committed < 15 {
		t.Fatalf("committed=%d, want ~20 small transactions", mach2.HTM.Stats.Committed)
	}
}

func TestElisionFallsBackWhenLockHeld(t *testing.T) {
	// Thread 0 holds the real lock for a long critical section while
	// thread 1 tries to elide: the eliding transaction must observe the
	// held lock, abort, and eventually take the lock for real; the
	// final count must still be exact.
	src := `
global lk bytes=8
global g bytes=8 align=64
global bar bytes=8 align=64
func main(0) {
entry:
  v0 = call @thread.id
  v1 = cmp eq v0, #0
  br v1, holder, elider
holder:
  call @lock.acquire #4096
  jmp spin
spin:
  v2 = phi #0 [holder], v3 [spin]
  v3 = add v2, #1
  v4 = cmp lt v3, #2000
  br v4, spin, unlockb
unlockb:
  v5 = load #4160
  v6 = add v5, #1
  store #4160, v6
  call @lock.release #4096
  jmp join
elider:
  call @tx.begin
  call @lock.acquire_elide #4096
  v7 = load #4160
  v8 = add v7, #1
  store #4160, v8
  call @lock.release_elide #4096
  call @tx.end
  jmp join
join:
  v9 = call @barrier.wait #4224, #2
  v10 = call @thread.id
  v11 = cmp eq v10, #0
  br v11, emit, done
emit:
  v12 = load #4160
  out v12
  jmp done
done:
  ret
}
`
	m := ir.MustParse(src)
	mach := New(m, 2, quietCfg())
	mach.Run(ThreadSpec{Func: "main"}, ThreadSpec{Func: "main"})
	if mach.Status() != StatusOK {
		t.Fatalf("status=%v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	if got := mach.Output(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("output=%v, want [2]", got)
	}
}

func TestMiscIntrinsics(t *testing.T) {
	src := `
func main(0) {
entry:
  v0 = call @thread.count
  v1 = call @sys.read #0, #8
  v2 = call @malloc #128
  call @free v2
  v3 = add v0, v1
  out v3
  ret
}
`
	m := ir.MustParse(src)
	mach := New(m, 2, quietCfg())
	mach.Run(ThreadSpec{Func: "main"}, ThreadSpec{Func: "main"})
	if mach.Status() != StatusOK {
		t.Fatalf("status %v (%s)", mach.Status(), mach.Stats().CrashReason)
	}
	// thread.count = 2, sys.read returns 0 -> both threads out 2.
	if got := mach.Output(); len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Fatalf("output = %v, want [2 2]", got)
	}
}

func TestUnknownIntrinsicCrashes(t *testing.T) {
	// A call that parses as a known-looking intrinsic name but is not
	// registered must crash (not silently no-op). Build directly since
	// the verifier rejects unknown callees in parsed modules.
	fb := ir.NewFuncBuilder("main", 0)
	b := fb.Block("entry")
	fb.SetBlock(b)
	fb.Append(ir.Instr{Op: ir.OpCall, Res: ir.NoValue, Callee: "sys.nope"})
	fb.Ret()
	m := ir.NewModule()
	m.AddFunc(fb.Done())
	mach := New(m, 1, quietCfg())
	mach.Run(ThreadSpec{Func: "main"})
	if mach.Status() != StatusCrashed {
		t.Fatalf("status = %v, want crashed", mach.Status())
	}
}
