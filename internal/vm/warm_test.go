package vm_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The tests here check the dirty-page bookkeeping against an oracle that
// does not use it: whole memory images, compared word for word.

// imageCase is one way of building, arming and starting a machine.
type imageCase struct {
	name  string
	fresh func() *vm.Machine
	arm   func(*vm.Machine)      // host-side pokes before Start
	plans func() []*vm.FaultPlan // new fault plans to arm before Start; each must fire
	specs []vm.ThreadSpec
	// check, when set, inspects the machine after its straight run.
	check func(*testing.T, *vm.Machine)
}

// checkImages runs the case straight and then in steps on the same
// machine. After Reset the image must be a fresh machine's; after
// Restore it must be the image the snapshot was taken from, whichever of
// the two held more dirty pages, on this machine and on a fresh one.
func checkImages(t *testing.T, c imageCase) {
	t.Helper()
	m := c.fresh()
	pristine := slices.Clone(m.Image())
	start := m.Snapshot()
	arm := func() (plans []*vm.FaultPlan) {
		if c.arm != nil {
			c.arm(m)
		}
		if c.plans != nil {
			plans = c.plans()
			m.SetFaultPlans(plans)
		}
		return plans
	}
	plans := arm()
	m.Run(c.specs...)
	for _, p := range plans {
		if !p.Injected {
			t.Fatalf("%v fault at %d did not fire", p.Model, p.TargetIndex)
		}
	}
	if c.check != nil {
		c.check(t, m)
	}
	status, stats, final := m.Status(), m.Stats(), slices.Clone(m.Image())
	m.Reset()
	if !slices.Equal(m.Image(), pristine) {
		t.Fatal("after Run and Reset the image differs from a fresh machine's")
	}
	if !m.Equal(start) {
		t.Fatal("after Run and Reset the machine differs from the snapshot of a fresh one")
	}

	type shot struct {
		s   *vm.Snapshot
		img []uint64
	}
	arm()
	m.Start(c.specs...)
	shots := []shot{{m.Snapshot(), slices.Clone(m.Image())}}
	for stride := stats.DynInstrs/4 + 1; !m.RunUntil(uint64(len(shots)) * stride); {
		shots = append(shots, shot{m.Snapshot(), slices.Clone(m.Image())})
	}
	if m.Status() != status || m.Stats() != stats || !slices.Equal(m.Image(), final) {
		t.Fatalf("the warm run in %d steps ended %v, not like the straight one (%v), or with another image", len(shots), m.Status(), status)
	}
	shots = append(shots, shot{m.Snapshot(), final})

	other := c.fresh()
	order := []int{len(shots) - 1, 0}
	for k := range shots {
		order = append(order, k, len(shots)-1-k)
	}
	for _, k := range order {
		for _, mach := range []*vm.Machine{m, other} {
			mach.Restore(shots[k].s)
			if !slices.Equal(mach.Image(), shots[k].img) {
				t.Fatalf("after Restore of snapshot %d the image differs from the one it was taken from", k)
			}
			if !mach.Equal(shots[k].s) {
				t.Fatalf("after Restore of snapshot %d the machine differs from it", k)
			}
		}
	}
	other.Reset()
	if !slices.Equal(other.Image(), pristine) {
		t.Fatal("after Restore and Reset the image differs from a fresh machine's")
	}
}

// engines returns the case on a machine of a shared Program (fused
// when single-threaded) and on a stepwise one (New).
func engines(name string, mod *ir.Module, threads int, cfg vm.Config, c imageCase) []imageCase {
	prog := vm.Compile(mod)
	compiled, step := c, c
	compiled.name, compiled.fresh = name+"/compiled", func() *vm.Machine { return vm.NewFromProgram(prog, threads, cfg) }
	step.name, step.fresh = name+"/step", func() *vm.Machine { return vm.New(mod, threads, cfg) }
	return []imageCase{compiled, step}
}

func hardened(t *testing.T, p *workloads.Program, mode core.Mode) *ir.Module {
	t.Helper()
	mod, err := core.Harden(p.Module, core.Config{Mode: mode, Opt: core.OptFaultProp, TxThreshold: p.TxThreshold, Blacklist: p.Blacklist})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// kvMachine builds the serving layer's program the way serve does and
// returns a function that pokes a batch of n requests.
func kvProgram(t *testing.T) (*ir.Module, []vm.ThreadSpec, func(m *vm.Machine, n int)) {
	t.Helper()
	kv := workloads.DefaultKVServeConfig()
	p := workloads.KVServe(kv)
	mod := hardened(t, p, core.ModeHAFT)
	hp := *p
	hp.Module = mod
	poke := func(m *vm.Machine, n int) {
		reqs, nreq := m.Mod.Global(workloads.KVReqsGlobal).Addr, m.Mod.Global(workloads.KVNReqGlobal).Addr
		for j := 0; j < n; j++ {
			m.Poke(reqs+uint64(j)*8, workloads.KVRequestWord(j%2 == 0, uint64(j*37%kv.Records), uint64(j)))
		}
		m.Poke(nreq, uint64(n))
	}
	return mod, hp.SpecsFor(1), poke
}

func TestDirtyPagesAgainstFullImages(t *testing.T) {
	var cases []imageCase
	cfg := vm.DefaultConfig()

	// Every exec-ladder program under every hardening mode.
	for _, name := range []string{"histogram", "kmeans", "linearreg", "matrixmul", "wordcount", "blackscholes"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Build(0)
		for _, mode := range []core.Mode{core.ModeNative, core.ModeILR, core.ModeHAFT, core.ModeTMR} {
			mod := hardened(t, p, mode)
			hp := *p
			hp.Module = mod
			cases = append(cases, engines(fmt.Sprintf("%s/%v", name, mode), mod, 2, cfg, imageCase{specs: hp.SpecsFor(2)})...)
		}
	}

	// A run that stores to wild but valid addresses — heap and the other
	// thread's stack — and then crashes.
	wild := ir.MustParse(`
global g bytes=16
func main(0) {
entry:
  store #2097152, #7
  store #2101248, #8
  v0 = load #4096
  store #4259840, v0
  store #4104, #9
  trap
}`)
	wild.Global("g").Init = []uint64{5, 6}
	cases = append(cases, engines("crash after wild stores", wild, 2, cfg, imageCase{
		specs: []vm.ThreadSpec{{Func: "main"}},
		check: func(t *testing.T, m *vm.Machine) {
			if m.Status() != vm.StatusCrashed || m.Peek(2097152) != 7 || m.Peek(4259840) != 5 {
				t.Fatalf("status %v (%s), wild words %d and %d", m.Status(), m.Stats().CrashReason, m.Peek(2097152), m.Peek(4259840))
			}
		},
	})...)

	// Memory-cell faults: flipWord on a load and after a store.
	hist, _ := workloads.ByName("histogram")
	hp := hist.Build(0)
	cases = append(cases, engines("memory faults", hp.Module, 2, cfg, imageCase{
		specs: hp.SpecsFor(2),
		plans: func() (plans []*vm.FaultPlan) {
			for i := uint64(0); i < 6; i++ {
				plans = append(plans, &vm.FaultPlan{Model: vm.FaultMemory, TargetIndex: 40 + 997*i, Mask: 1 << (7 * i)})
			}
			return plans
		},
	})...)

	// A transaction that aborts (a lock inside it is unfriendly), is
	// retried, and falls back to running non-transactionally.
	fallback := ir.MustParse(`
global g bytes=64
global lk bytes=8
func main(0) {
entry:
  call @tx.begin
  store #4096, #1
  call @lock.acquire #4160
  store #4104, #2
  call @lock.release #4160
  call @tx.end
  call @tx.begin
  store #4112, #3
  call @tx.end
  ret
}`)
	cases = append(cases, engines("aborted and fallback transaction", fallback, 1, cfg, imageCase{
		specs: []vm.ThreadSpec{{Func: "main"}},
		check: func(t *testing.T, m *vm.Machine) {
			if st := m.HTM.Stats; m.Status() != vm.StatusOK || st.Aborted[htm.CauseOther] == 0 || st.FallbackRuns == 0 || st.Committed == 0 {
				t.Fatalf("status %v, htm %+v: want aborts, a fallback and a commit", m.Status(), st)
			}
		},
	})...)

	// The serving layer's use: poke a batch, run, read the replies.
	kvMod, kvSpecs, poke := kvProgram(t)
	cases = append(cases, engines("poked KV batch", kvMod, 1, cfg, imageCase{
		specs: kvSpecs,
		arm:   func(m *vm.Machine) { poke(m, 32) },
		check: func(t *testing.T, m *vm.Machine) {
			if m.Status() != vm.StatusOK || len(m.Output()) != 1 {
				t.Fatalf("KV batch: status %v, output %v", m.Status(), m.Output())
			}
		},
	})...)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkImages(t, c)
		})
	}
}

// TestWarmRunAllocates: a warm Reset+Run allocates a handful of objects
// whatever the program does — nothing per key, per call or per
// transaction.
func TestWarmRunAllocates(t *testing.T) {
	cfg := vm.DefaultConfig()
	kvMod, kvSpecs, poke := kvProgram(t)
	kvm := vm.NewFromProgram(vm.Compile(kvMod), 1, cfg)
	kvRun := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			kvm.Reset()
			poke(kvm, n)
			if kvm.Run(kvSpecs...) != vm.StatusOK {
				t.Fatal("KV batch failed")
			}
		})
	}
	one, full := kvRun(1), kvRun(32)
	if one != full || one > 8 {
		t.Errorf("a warm KV run allocates %v objects for 1 key and %v for 32, want the same and at most 8", one, full)
	}

	var txs uint64
	for _, name := range []string{"histogram", "wordcount"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Build(1)
		hp := *p
		hp.Module = hardened(t, p, core.ModeHAFT)
		specs := hp.SpecsFor(1)
		m := vm.NewFromProgram(vm.Compile(hp.Module), 1, cfg)
		n := testing.AllocsPerRun(3, func() {
			m.Reset()
			if m.Run(specs...) != vm.StatusOK {
				t.Fatal(name + " failed")
			}
		})
		// Not "at most the KV run's": the output slice grows with what the
		// program emits and the first abort of a run adds a map bucket.
		if n > 8 {
			t.Errorf("a warm %s/HAFT run (%d transactions) allocates %v objects, want at most 8", name, m.HTM.Stats.Started, n)
		}
		txs += m.HTM.Stats.Started
	}
	if txs < 2000 {
		t.Fatalf("the two programs ran %d transactions, want thousands", txs)
	}
}
