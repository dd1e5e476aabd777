package vm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/htm"
	"repro/internal/ir"
	"repro/internal/obs"
)

// engineOut is everything the differential harness compares between
// stepwise turns (New) and run-ahead turns (NewFromProgram). The two
// must agree on every field, bit for bit.
type engineOut struct {
	status Status
	out    []uint64
	stats  RunStats
	htm    htm.Stats
}

// diffSetup parameterizes one differential case.
type diffSetup struct {
	threads int
	cfg     func() Config
	specs   func(m *ir.Module) []ThreadSpec
	arm     func(mach *Machine)
}

// at2 returns the setup on two threads, each thread spec run twice.
func (s diffSetup) at2() diffSetup {
	specs := s.specs
	s.threads = 2
	s.specs = func(m *ir.Module) []ThreadSpec {
		if specs == nil {
			return []ThreadSpec{{Func: "main"}, {Func: "main"}}
		}
		sp := specs(m)
		return append(sp, sp...)
	}
	return s
}

// execEngine runs one dispatch over a fresh parse of src and captures
// its observable outcome.
func execEngine(t *testing.T, src string, ahead bool, s diffSetup) (engineOut, *Machine) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m.Layout()
	threads := s.threads
	if threads == 0 {
		threads = 1
	}
	cfg := quietCfg()
	if s.cfg != nil {
		cfg = s.cfg()
	}
	var mach *Machine
	if ahead {
		mach = NewFromProgram(Compile(m), threads, cfg)
	} else {
		mach = New(m, threads, cfg)
	}
	if s.arm != nil {
		s.arm(mach)
	}
	var specs []ThreadSpec
	if s.specs != nil {
		specs = s.specs(m)
	} else {
		for i := 0; i < threads; i++ {
			specs = append(specs, ThreadSpec{Func: "main"})
		}
	}
	mach.Run(specs...)
	return engineOut{
		status: mach.Status(),
		out:    append([]uint64(nil), mach.Output()...),
		stats:  mach.Stats(),
		htm:    mach.HTM.Stats,
	}, mach
}

// diffEngines runs src through both dispatches and fails on any
// divergence in status, output, statistics, or HTM behavior.
func diffEngines(t *testing.T, name, src string, s diffSetup) (engineOut, engineOut) {
	t.Helper()
	want, _ := execEngine(t, src, false, s)
	got, _ := execEngine(t, src, true, s)
	compareEngines(t, name, got, want)
	return got, want
}

func compareEngines(t *testing.T, name string, got, want engineOut) {
	t.Helper()
	if got.status != want.status {
		t.Errorf("%s: status %v, stepwise %v (run-ahead reason %q, stepwise reason %q)",
			name, got.status, want.status, got.stats.CrashReason, want.stats.CrashReason)
	}
	if !reflect.DeepEqual(got.out, want.out) {
		t.Errorf("%s: output %v, stepwise %v", name, got.out, want.out)
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats diverge\nrun-ahead: %+v\nstepwise:  %+v", name, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.htm, want.htm) {
		t.Errorf("%s: HTM stats diverge\nrun-ahead: %+v\nstepwise:  %+v", name, got.htm, want.htm)
	}
}

// ilrProg is a hardened-shape loop: ILR master/shadow pairs, tx.check
// comparisons and tx latch bookkeeping inside a split transaction,
// straight-line code of the kind that takes the dispatch's inline tx
// paths.
const ilrProg = `
func main(0) {
entry:
  call @tx.begin
  jmp loop
loop:
  v0 = phi #0 [entry], v6 [loop]
  v1 = phi #0 [entry], v7 [loop] !shadow
  call @tx.cond_split #200
  call @tx.counter_inc #5
  v2 = mul v0, #3
  v3 = mul v1, #3 !shadow
  call @tx.check v2, v3
  v4 = add v2, #7
  v5 = add v3, #7 !shadow
  call @tx.check v4, v5
  v6 = add v0, #1
  v7 = add v1, #1 !shadow
  v8 = cmp lt v6, #500
  br v8, loop, done
done:
  call @tx.end
  out v6
  out v4
  ret
}
`

// pairProg isolates the canonical master+shadow+tx.check triad
// between memory accesses.
const pairProg = `
global acc bytes=8
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v5 [loop]
  v1 = load #4096
  v2 = add v1, v0
  v3 = add v1, v0 !shadow
  call @tx.check v2, v3
  store #4096, v2
  v5 = add v0, #1
  v6 = cmp lt v5, #300
  br v6, loop, done
done:
  v7 = load #4096
  out v7
  ret
}
`

// faultProg mixes loads, stores, conditional branches and arithmetic
// in one thread — every fault-model population is non-trivial.
const faultProg = `
global buf bytes=64
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v7 [loop]
  v1 = and v0, #7
  v2 = mul v1, #8
  v3 = add v2, #4096
  v4 = load v3
  v5 = add v4, v0
  store v3, v5
  v7 = add v0, #1
  v8 = cmp lt v7, #40
  br v8, loop, done
done:
  v9 = load #4096
  v10 = load #4128
  v11 = add v9, v10
  out v11
  out v7
  ret
}
`

func TestCompiledMatchesInterpreter(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		setup diffSetup
	}{
		{"arithmetic", `
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
`, diffSetup{}},
		{"loop-phi", `
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
`, diffSetup{}},
		{"calls-frames", `
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
`, diffSetup{}},
		{"stack-overflow", `
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
`, diffSetup{}},
		{"null-load", "func main(0) {\nentry:\n  v0 = load #0\n  ret\n}", diffSetup{}},
		{"misaligned-store", "func main(0) {\nentry:\n  store #12, #1\n  ret\n}", diffSetup{}},
		{"wild-load", "func main(0) {\nentry:\n  v0 = load #999999999\n  ret\n}", diffSetup{}},
		{"div-zero", "func main(0) {\nentry:\n  v0 = div #1, #0\n  ret\n}", diffSetup{}},
		{"rem-zero", "func main(0) {\nentry:\n  v0 = rem #1, #0\n  ret\n}", diffSetup{}},
		{"trap", "func main(0) {\nentry:\n  trap\n}", diffSetup{}},
		{"fused-div-zero", `
func main(0) {
entry:
  v0 = add #1, #2
  v1 = mul v0, #0
  v2 = div v0, v1
  v3 = add v2, #1
  out v3
  ret
}
`, diffSetup{}},
		{"indirect-call", `
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
`, diffSetup{specs: func(m *ir.Module) []ThreadSpec {
			return []ThreadSpec{{Func: "main", Args: []uint64{uint64(m.FuncIndex("b"))}}}
		}}},
		{"indirect-call-wild", `
func main(1) {
entry:
  v1 = callind v0
  out v1
  ret
}
`, diffSetup{specs: func(m *ir.Module) []ThreadSpec {
			return []ThreadSpec{{Func: "main", Args: []uint64{1 << 40}}}
		}}},
		{"atomics-threads", `
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
`, diffSetup{threads: 4, specs: func(m *ir.Module) []ThreadSpec {
			args := []uint64{m.Global("counter").Addr, m.Global("bar").Addr}
			sp := make([]ThreadSpec, 4)
			for i := range sp {
				sp[i] = ThreadSpec{Func: "worker", Args: args}
			}
			return sp
		}}},
		{"locks", `
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
`, diffSetup{threads: 3, specs: func(m *ir.Module) []ThreadSpec {
			args := []uint64{m.Global("counter").Addr, m.Global("lk").Addr, m.Global("bar").Addr}
			return []ThreadSpec{{"worker", args}, {"worker", args}, {"worker", args}}
		}}},
		{"tx-retry-fallback", `
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
`, diffSetup{specs: func(m *ir.Module) []ThreadSpec {
			return []ThreadSpec{{Func: "main", Args: []uint64{m.Global("g").Addr}}}
		}}},
		{"tx-commit", `
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
`, diffSetup{specs: func(m *ir.Module) []ThreadSpec {
			return []ThreadSpec{{Func: "main", Args: []uint64{m.Global("g").Addr}}}
		}}},
		{"cond-split", `
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
`, diffSetup{}},
		{"out-inside-tx", `
func main(0) {
entry:
  call @tx.begin
  v0 = add #20, #22
  out v0
  call @tx.end
  ret
}
`, diffSetup{}},
		{"lock-elision", `
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
`, diffSetup{specs: func(m *ir.Module) []ThreadSpec {
			return []ThreadSpec{{Func: "main", Args: []uint64{m.Global("lk").Addr, m.Global("g").Addr}}}
		}}},
		{"malloc-free", `
func main(0) {
entry:
  v0 = call @malloc #64
  store v0, #123
  v1 = load v0
  call @free v0
  out v1
  ret
}
`, diffSetup{}},
		{"tx-conflicts", `
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
`, diffSetup{threads: 2, specs: func(m *ir.Module) []ThreadSpec {
			args := []uint64{m.Global("g").Addr, m.Global("bar").Addr}
			return []ThreadSpec{{"worker", args}, {"worker", args}}
		}}},
		{"hang", `
func main(0) {
entry:
  jmp entry2
entry2:
  jmp entry
}
`, diffSetup{cfg: func() Config {
			c := quietCfg()
			c.MaxDynInstrs = 10000
			return c
		}}},
		{"hang-mid-fused-run", ilrProg, diffSetup{cfg: func() Config {
			c := quietCfg()
			c.MaxDynInstrs = 997
			return c
		}}},
		{"deadlock", `
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
`, diffSetup{threads: 2, specs: func(m *ir.Module) []ThreadSpec {
			args := []uint64{m.Global("l1").Addr, m.Global("l2").Addr, m.Global("bar").Addr}
			return []ThreadSpec{{"w1", args}, {"w2", args}}
		}}},
		{"adaptive-threshold", `
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
`, diffSetup{cfg: func() Config {
			c := quietCfg()
			c.AdaptiveThreshold = true
			return c
		}}},
		{"misc-intrinsics", `
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
`, diffSetup{threads: 2}},
		{"ilr-fused", ilrProg, diffSetup{}},
		{"ilr-pair-check", pairProg, diffSetup{}},
		{"fault-mix", faultProg, diffSetup{}},
		{"check-diverges-in-tx", `
func main(0) {
entry:
  call @tx.begin
  v0 = add #1, #2
  v1 = add #1, #3 !shadow
  call @tx.check v0, v1
  call @tx.end
  out v0
  ret
}
`, diffSetup{}},
		{"check-diverges-outside-tx", `
func main(0) {
entry:
  v0 = add #1, #2
  v1 = add #1, #3 !shadow
  call @tx.check v0, v1
  out v0
  ret
}
`, diffSetup{}},
		{"reset-prog-rng", resetProg, diffSetup{threads: 2, cfg: DefaultConfig}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffEngines(t, tc.name, tc.src, tc.setup)
		})
		if tc.setup.threads <= 1 {
			t.Run(tc.name+"/2T", func(t *testing.T) {
				diffEngines(t, tc.name+"/2T", tc.src, tc.setup.at2())
			})
		}
	}
}

// TestCompiledUnknownCalleesCrash covers the copBadCall sentinel
// (unparseable sources, so built directly).
func TestCompiledUnknownCalleesCrash(t *testing.T) {
	for _, callee := range []string{"sys.nope", "nosuchfunc"} {
		reason := "call to unknown function " + callee
		fb := ir.NewFuncBuilder("main", 0)
		fb.SetBlock(fb.Block("entry"))
		fb.Append(ir.Instr{Op: ir.OpCall, Res: ir.NoValue, Callee: callee})
		fb.Ret()
		m := ir.NewModule()
		m.AddFunc(fb.Done())

		for _, mach := range []*Machine{New(m, 1, quietCfg()), NewFromProgram(Compile(m), 1, quietCfg())} {
			mach.Run(ThreadSpec{Func: "main"})
			if mach.Status() != StatusCrashed || mach.Stats().CrashReason != reason || mach.Stats().DynInstrs != 1 {
				t.Fatalf("%s: %v after %d instructions (%q), want a crash on the call with %q",
					callee, mach.Status(), mach.Stats().DynInstrs, mach.Stats().CrashReason, reason)
			}
		}
	}
}

// TestPhiMissingEdgeCrashes covers the phi-group crash path the IR
// verifier keeps every parsed program away from: entered from a
// predecessor that the second phi of the run has no edge for, the group
// crashes on the second phi; entered from one no phi has an edge for,
// on the first. Either way nothing latches.
func TestPhiMissingEdgeCrashes(t *testing.T) {
	const src = `
func main(0) {
entry:
  jmp loop
loop:
  v0 = phi #0 [entry], v2 [loop]
  v1 = phi #5 [entry], v3 [loop]
  v2 = add v0, #1
  v3 = add v1, #1
  v4 = cmp lt v2, #3
  br v4, loop, done
done:
  out v1
  ret
}
`
	for _, tc := range []struct {
		name string
		cut  func(phis []ir.Instr) // drops edges the verifier would demand
		want RunStats
	}{
		// jmp and one iteration (2 phis, 2 adds, cmp, br) are 7
		// instructions and 5 register writes; the failing group counts
		// one more than the phis it reached (no give-back).
		{"second phi", func(phis []ir.Instr) {
			phis[1].Args, phis[1].PhiPreds = phis[1].Args[:1], phis[1].PhiPreds[:1]
		}, RunStats{DynInstrs: 7 + 3, RegWrites: 5, CondBranches: 1}},
		{"every phi", func(phis []ir.Instr) {
			for i := range phis[:2] {
				phis[i].Args, phis[i].PhiPreds = phis[i].Args[:1], phis[i].PhiPreds[:1]
			}
		}, RunStats{DynInstrs: 7 + 2, RegWrites: 5, CondBranches: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := ir.MustParse(src)
			tc.cut(m.Func("main").Blocks[1].Instrs)
			for _, mach := range []*Machine{New(m, 1, quietCfg()), NewFromProgram(Compile(m), 1, quietCfg())} {
				mach.Run(ThreadSpec{Func: "main"})
				st := mach.Stats()
				const reason = "phi in main/loop has no edge from block 1"
				if mach.Status() != StatusCrashed || st.CrashReason != reason ||
					st.DynInstrs != tc.want.DynInstrs || st.RegWrites != tc.want.RegWrites || st.CondBranches != tc.want.CondBranches {
					t.Fatalf("%v (%q) with %+v, want a crash with %q and %+v",
						mach.Status(), st.CrashReason, st, reason, tc.want)
				}
			}
		})
	}
}

// TestCompiledFaultDifferential sweeps every fault model and flow over
// target indices spanning each population, on both a plain and an
// ILR-hardened program, on one thread and two. Both dispatches must
// agree on injection site, detection outcome, and every statistic.
func TestCompiledFaultDifferential(t *testing.T) {
	models := []struct {
		model FaultModel
		flows []FaultFlow
	}{
		{FaultRegister, []FaultFlow{FlowAny, FlowMaster, FlowShadow}},
		{FaultSkip, []FaultFlow{FlowAny, FlowMaster, FlowShadow}},
		{FaultMemory, []FaultFlow{FlowAny}},
		{FaultAddress, []FaultFlow{FlowAny}},
		{FaultBranch, []FaultFlow{FlowAny}},
	}
	for _, prog := range []struct {
		name string
		src  string
	}{{"plain", faultProg}, {"ilr", ilrProg}, {"pair", pairProg}} {
		for _, setup := range []diffSetup{{threads: 1}, diffSetup{}.at2()} {
			name := fmt.Sprintf("%s/%dT", prog.name, setup.threads)
			ref, _ := execEngine(t, prog.src, false, setup)
			if ref.status != StatusOK {
				t.Fatalf("%s reference run: %v (%s)", name, ref.status, ref.stats.CrashReason)
			}
			pop := func(m FaultModel) uint64 {
				switch m {
				case FaultMemory, FaultAddress:
					return ref.stats.MemAccesses
				case FaultBranch:
					return ref.stats.CondBranches
				}
				return ref.stats.RegWrites
			}
			for _, mc := range models {
				for _, flow := range mc.flows {
					n := pop(mc.model)
					for _, idx := range []uint64{0, 1, n / 3, n / 2, n - 1, n + 10} {
						var plans [2]*FaultPlan
						outs := make([]engineOut, 2)
						for ei, ahead := range []bool{false, true} {
							p := &FaultPlan{Model: mc.model, TargetIndex: idx, Mask: 1 << 13, Flow: flow}
							plans[ei] = p
							armed := setup
							armed.arm = func(mach *Machine) { mach.SetFaultPlan(p) }
							outs[ei], _ = execEngine(t, prog.src, ahead, armed)
						}
						name := name + "/" + mc.model.String() + "/" + flow.String()
						compareEngines(t, name, outs[1], outs[0])
						if plans[0].Injected != plans[1].Injected || plans[0].Where != plans[1].Where {
							t.Errorf("%s idx=%d: injected/where (%v,%q) vs stepwise (%v,%q)",
								name, idx, plans[1].Injected, plans[1].Where,
								plans[0].Injected, plans[0].Where)
						}
					}
				}
			}
		}
	}
}

// TestCompiledDoubleFaultDifferential arms two plans at once (the
// campaign engine's double-SEU mode), on one thread and two.
func TestCompiledDoubleFaultDifferential(t *testing.T) {
	mk := func() []*FaultPlan {
		return []*FaultPlan{
			{Model: FaultRegister, TargetIndex: 5, Mask: 1 << 3},
			{Model: FaultMemory, TargetIndex: 11, Mask: 1 << 40},
		}
	}
	for _, setup := range []diffSetup{{threads: 1}, diffSetup{}.at2()} {
		name := fmt.Sprintf("double-fault/%dT", setup.threads)
		pi, pc := mk(), mk()
		setup.arm = func(mach *Machine) { mach.SetFaultPlans(pi) }
		want, _ := execEngine(t, faultProg, false, setup)
		setup.arm = func(mach *Machine) { mach.SetFaultPlans(pc) }
		got, _ := execEngine(t, faultProg, true, setup)
		compareEngines(t, name, got, want)
		for i := range pi {
			if pi[i].Injected != pc[i].Injected || pi[i].Where != pc[i].Where {
				t.Errorf("%s plan %d: (%v,%q) vs stepwise (%v,%q)",
					name, i, pc[i].Injected, pc[i].Where, pi[i].Injected, pi[i].Where)
			}
		}
	}
}

// TestCompiledTracerDifferential: the debugtrace event stream must be
// identical, event for event, including cycles, on one thread and two.
func TestCompiledTracerDifferential(t *testing.T) {
	for _, setup := range []diffSetup{{threads: 1}, diffSetup{}.at2()} {
		collect := func(ahead bool) []TraceEvent {
			var evs []TraceEvent
			s := setup
			s.arm = func(mach *Machine) {
				mach.SetTracer(func(ev TraceEvent) { evs = append(evs, ev) })
			}
			out, _ := execEngine(t, ilrProg, ahead, s)
			if out.status != StatusOK {
				t.Fatalf("%dT run-ahead=%v: %v", setup.threads, ahead, out.status)
			}
			return evs
		}
		want := collect(false)
		got := collect(true)
		if len(want) == 0 {
			t.Fatal("tracer observed nothing")
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i < len(got) && got[i] != want[i] {
					t.Fatalf("%dT: trace diverges at event %d: %+v vs %+v", setup.threads, i, got[i], want[i])
				}
			}
			t.Fatalf("%dT: trace lengths: run-ahead %d, stepwise %d", setup.threads, len(got), len(want))
		}
	}
}

// TestCompiledObsAndProfilerDifferential: the observability ring and
// the overhead profiler must record identical streams from both
// dispatches, and attaching them must not perturb the run.
func TestCompiledObsAndProfilerDifferential(t *testing.T) {
	type probe struct {
		out    engineOut
		events []obs.Event
		folded string
		total  uint64
	}
	run := func(src string, threads int, ahead bool) probe {
		ring := obs.NewRing(1 << 14)
		prof := obs.NewProfiler()
		out, _ := execEngine(t, src, ahead, diffSetup{
			threads: threads,
			arm: func(mach *Machine) {
				mach.SetObsRing(ring)
				mach.SetProfiler(prof)
			},
		})
		var total uint64
		for _, f := range prof.Funcs() {
			total += f.Total()
		}
		return probe{out: out, events: ring.Snapshot(), folded: prof.Folded(true), total: total}
	}
	const diverge = `
func main(0) {
entry:
  call @tx.begin
  v0 = add #1, #2
  v1 = add #1, #3 !shadow
  call @tx.check v0, v1
  call @tx.end
  out v0
  ret
}
`
	for _, tc := range []struct {
		name    string
		src     string
		threads int
	}{
		{"ilr", ilrProg, 1},
		{"ilr/2T", ilrProg, 2},
		{"diverge", diverge, 1},
		{"diverge/2T", diverge, 2},
	} {
		want := run(tc.src, tc.threads, false)
		got := run(tc.src, tc.threads, true)
		compareEngines(t, tc.name, got.out, want.out)
		if !reflect.DeepEqual(got.events, want.events) {
			t.Errorf("%s: obs events diverge (run-ahead %d events, stepwise %d)",
				tc.name, len(got.events), len(want.events))
		}
		if got.folded != want.folded {
			t.Errorf("%s: profiles diverge\nrun-ahead:\n%s\nstepwise:\n%s", tc.name, got.folded, want.folded)
		}
		if got.total != got.out.stats.DynInstrs {
			t.Errorf("%s: run-ahead profile total %d != DynInstrs %d",
				tc.name, got.total, got.out.stats.DynInstrs)
		}
		// Instrumentation must not have perturbed the simulation.
		bare, _ := execEngine(t, tc.src, true, diffSetup{threads: tc.threads})
		compareEngines(t, tc.name+"-bare", got.out, bare)
	}
}

// TestProgramSharedAcrossMachines: one compiled Program backing many
// concurrent machines produces a stepwise machine's exact results, on
// one thread and two.
func TestProgramSharedAcrossMachines(t *testing.T) {
	m, err := ir.Parse(ilrProg)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog := Compile(m)
	for _, setup := range []diffSetup{{threads: 1}, diffSetup{}.at2()} {
		want, _ := execEngine(t, ilrProg, false, setup)
		specs := setup.specs
		if specs == nil {
			specs = func(*ir.Module) []ThreadSpec { return []ThreadSpec{{Func: "main"}} }
		}
		var wg sync.WaitGroup
		outs := make([]engineOut, 8)
		for i := range outs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				mach := NewFromProgram(prog, setup.threads, quietCfg())
				mach.Run(specs(m)...)
				outs[i] = engineOut{
					status: mach.Status(),
					out:    append([]uint64(nil), mach.Output()...),
					stats:  mach.Stats(),
					htm:    mach.HTM.Stats,
				}
			}(i)
		}
		wg.Wait()
		for i, got := range outs {
			if got.status != want.status || !reflect.DeepEqual(got.out, want.out) || got.stats != want.stats {
				t.Fatalf("%dT machine %d diverged: %+v vs %+v", setup.threads, i, got, want)
			}
		}
	}
}

// TestProgramCache: one compile per module identity, shared.
func TestProgramCache(t *testing.T) {
	pc := NewProgramCache()
	m := ir.MustParse(ilrProg)
	p1 := pc.Get(m)
	p2 := pc.Get(m)
	if p1 != p2 {
		t.Fatal("cache compiled the same module twice")
	}
	if pc.Len() != 1 {
		t.Fatalf("cache len %d, want 1", pc.Len())
	}
	m2 := m.Clone()
	if pc.Get(m2) == p1 || pc.Len() != 2 {
		t.Fatal("distinct module identities must compile separately")
	}
}

// --- Benchmarks -------------------------------------------------------

// Intrinsic dispatch: a name-map lookup per call vs the dense id table
// the runtime uses.

var (
	benchID  intrID
	benchLat uint64
)

func BenchmarkIntrinsicLookupName(b *testing.B) {
	names := [4]string{"tx.check", "tx.counter_inc", "lock.acquire", "barrier.wait"}
	for i := 0; i < b.N; i++ {
		benchID = intrinsicIDs[names[i&3]]
	}
}

func BenchmarkIntrinsicLookupID(b *testing.B) {
	ids := [4]intrID{intrTxCheck, intrTxCounterInc, intrLockAcquire, intrBarrierWait}
	for i := 0; i < b.N; i++ {
		benchLat = intrinsicLat[ids[i&3]]
	}
}

func benchEngine(b *testing.B, ahead bool) {
	m := ir.MustParse(ilrProg)
	var mach *Machine
	if ahead {
		mach = NewFromProgram(Compile(m), 1, quietCfg())
	} else {
		mach = New(m, 1, quietCfg())
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		mach.Reset()
		if mach.Run(ThreadSpec{Func: "main"}) != StatusOK {
			b.Fatalf("run failed: %v", mach.Status())
		}
		instrs += mach.Stats().DynInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkEngineStepwise(b *testing.B) { benchEngine(b, false) }
func BenchmarkEngineRunAhead(b *testing.B) { benchEngine(b, true) }
