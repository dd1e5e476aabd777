package vm

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	harden "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/ir"
)

// snapProg is the native program of the snapshot property tests: a
// lock-protected shared update loop (contended with two threads), a
// barrier the faster thread waits at, a private loop long enough to be
// split into several transactions, a local call, and output.
const snapProg = `
global g bytes=64
global lk bytes=8
global bar bytes=8
global priv bytes=1024

func mix(1) {
entry:
  v1 = mul v0, #2654435761
  v2 = shr v1, #13
  v3 = xor v1, v2
  ret v3
}

func main(0) {
entry:
  v0 = call @thread.id
  v1 = call @thread.count
  jmp loop
loop:
  v2 = phi #0 [entry], v8 [loop]
  v3 = mul v2, #8
  v4 = add v3, #4096
  call @lock.acquire #4160
  v5 = load v4
  v6 = add v5, v0
  v7 = add v6, #1
  store v4, v7
  call @lock.release #4160
  v8 = add v2, #1
  v9 = cmp lt v8, #8
  br v9, loop, sync
sync:
  call @barrier.wait #4168, v1
  v20 = mul v0, #512
  v21 = add v20, #4224
  v22 = mul v0, #40
  v23 = add v22, #60
  jmp work
work:
  v10 = phi #0 [sync], v17 [work]
  v11 = phi #7 [sync], v14 [work]
  v12 = and v10, #63
  v13 = mul v12, #8
  v18 = add v21, v13
  v19 = load v18
  v24 = add v11, v19
  v14 = call @mix v24
  store v18, v14
  v17 = add v10, #1
  v25 = cmp lt v17, v23
  br v25, work, join
join:
  call @barrier.wait #4168, v1
  v26 = cmp eq v0, #0
  br v26, emit, fin
emit:
  v27 = load #4096
  out v27
  v28 = load #4224
  out v28
  out v14
  jmp fin
fin:
  ret
}
`

// snapConfig keeps the spontaneous-abort stream busy so that its
// position matters, and disables the other sources of "other" aborts
// so that every such abort is a spontaneous one.
func snapConfig() Config {
	cfg := DefaultConfig()
	cfg.HTM.SpontaneousPerAccessMicro = 4000
	cfg.HTM.InterruptPeriod = 0
	cfg.HTM.MaxCycles = 0
	return cfg
}

// snapFinal is everything the tests compare between two finished runs.
type snapFinal struct {
	status Status
	stats  RunStats
	htm    htm.Stats
	out    []uint64
	mem    []uint64
}

func finalOf(m *Machine) snapFinal {
	return snapFinal{m.Status(), m.Stats(), m.HTM.Stats, slices.Clone(m.Output()), slices.Clone(m.mem)}
}

func (a snapFinal) diff(b snapFinal) string {
	switch {
	case a.status != b.status:
		return fmt.Sprintf("status %v != %v", a.status, b.status)
	case a.stats != b.stats:
		return fmt.Sprintf("stats\n %+v\n!=\n %+v", a.stats, b.stats)
	case !reflect.DeepEqual(a.htm, b.htm):
		return fmt.Sprintf("htm stats\n %+v\n!=\n %+v", a.htm, b.htm)
	case !slices.Equal(a.out, b.out):
		return fmt.Sprintf("output %v != %v", a.out, b.out)
	case !slices.Equal(a.mem, b.mem):
		return "memory differs"
	}
	return ""
}

// snapCase is one (mode, threads, engine) cell of the property tests.
type snapCase struct {
	name    string
	mode    harden.Mode
	threads int
	mod     *ir.Module
	prog    *Program // nil: step interpreter
}

func (c snapCase) machine() *Machine {
	if c.prog != nil {
		return NewFromProgram(c.prog, c.threads, snapConfig())
	}
	return New(c.mod, c.threads, snapConfig())
}

func (c snapCase) specs() []ThreadSpec {
	return []ThreadSpec{{Func: "main"}, {Func: "main"}}[:c.threads]
}

func snapCases(t *testing.T) []snapCase {
	t.Helper()
	var cases []snapCase
	for _, mode := range []harden.Mode{harden.ModeNative, harden.ModeILR, harden.ModeHAFT, harden.ModeTMR} {
		mod, err := harden.Harden(ir.MustParse(snapProg), harden.Config{Mode: mode, Opt: harden.OptFaultProp, TxThreshold: 120})
		if err != nil {
			t.Fatalf("harden %v: %v", mode, err)
		}
		prog := Compile(mod)
		for _, threads := range []int{1, 2} {
			for _, engine := range []string{"compiled", "step"} {
				c := snapCase{mode: mode, threads: threads, mod: mod,
					name: fmt.Sprintf("%v/%dT/%s", mode, threads, engine)}
				if engine == "compiled" {
					c.prog = prog
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// dirtier returns a function that leaves m the way a failed faulty run
// leaves a campaign worker's machine: restored to the start, then run
// with an address fault that lands a store in the unused heap and, once
// that store's transaction has committed, a second one that ends the
// run (a trap, or an ILR detection on the way there). HAFT rolls such a
// store back with its transaction; there the wild word is written
// directly.
func dirtier(t *testing.T, c snapCase, m *Machine, start *Snapshot) func() {
	t.Helper()
	heap := m.mem[m.Mod.HeapBase/8 : (m.Mod.HeapBase+m.Mod.HeapBytes)/8]
	run := func(target uint64) bool {
		m.Restore(start)
		m.SetFaultPlans([]*FaultPlan{
			{Model: FaultAddress, TargetIndex: target, Mask: 1 << 16},
			{Model: FaultAddress, TargetIndex: target + 60, Mask: 1 << 40},
		})
		m.RunUntil(^uint64(0))
		if m.Status() != StatusOK && c.mode == harden.ModeHAFT {
			m.Poke(m.Mod.HeapBase+m.Mod.HeapBytes/2&^7, 0xdead) // a store, so through the machine
		}
		return m.Status() != StatusOK && !allZero(heap)
	}
	for target := uint64(0); target < 200; target++ {
		if run(target) {
			return func() { run(target) }
		}
	}
	t.Fatalf("%s: no address fault stored into the unused heap of a run that then failed", c.name)
	return nil
}

func allZero(ws []uint64) bool {
	return !slices.ContainsFunc(ws, func(w uint64) bool { return w != 0 })
}

// TestSnapshotStepsAndRestore: a run taken in steps with a snapshot at
// every pause ends exactly like the straight run, and so does a run
// resumed from any of those snapshots — on the machine that took them
// and on another one dirtied by a crashed faulty run.
func TestSnapshotStepsAndRestore(t *testing.T) {
	for _, c := range snapCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkStepsAndRestore(t, c, 40)
		})
	}
	// The same property where the spontaneous-abort stream runs far past
	// what htm memoizes, so that Restore positions it before, across and
	// beyond the memo: the private loop made 2000 times longer.
	mod, err := harden.Harden(ir.MustParse(strings.Replace(snapProg, "add v22, #60", "add v22, #120000", 1)),
		harden.Config{Mode: harden.ModeHAFT, Opt: harden.OptFaultProp, TxThreshold: 120})
	if err != nil {
		t.Fatal(err)
	}
	long := snapCase{name: "haft/1T/compiled/long", mode: harden.ModeHAFT, threads: 1, mod: mod, prog: Compile(mod)}
	t.Run(long.name, func(t *testing.T) {
		t.Parallel()
		if draws := checkStepsAndRestore(t, long, 8); draws < 3*htm.MemoDraws/2 {
			t.Fatalf("the long run drew %d times, want well past htm.MemoDraws = %d", draws, htm.MemoDraws)
		}
	})
}

// checkStepsAndRestore is the property for one case; it returns the
// number of spontaneous-abort draws of the whole run.
func checkStepsAndRestore(t *testing.T, c snapCase, steps uint64) uint64 {
	t.Helper()
	straight := c.machine()
	if st := straight.Run(c.specs()...); st != StatusOK {
		t.Fatalf("straight run: %v (%s)", st, straight.Stats().CrashReason)
	}
	want, draws := finalOf(straight), straight.HTM.Draws()

	stepped := c.machine()
	stepped.Start(c.specs()...)
	snaps := []*Snapshot{stepped.Snapshot()}
	stride := want.stats.DynInstrs/steps + 1
	var inTx, blocked, afterAbort bool
	for !stepped.RunUntil(uint64(len(snaps)) * stride) {
		for i, co := range stepped.cores {
			inTx = inTx || stepped.HTM.InTx(i)
			blocked = blocked || co.state == threadBlocked
		}
		afterAbort = afterAbort || stepped.HTM.Stats.Aborted[htm.CauseOther] > 0
		if stepped.Equal(snaps[0]) {
			t.Fatal("a machine that has run equals its start snapshot")
		}
		snaps = append(snaps, stepped.Snapshot())
		if !stepped.Equal(snaps[len(snaps)-1]) {
			t.Fatalf("machine differs from the snapshot just taken (%d)", len(snaps)-1)
		}
	}
	if d := finalOf(stepped).diff(want); d != "" {
		t.Fatalf("run in %d steps differs from the straight run: %s", len(snaps), d)
	}
	if uint64(len(snaps)) < steps/2 {
		t.Fatalf("only %d snapshots taken", len(snaps))
	}
	if c.mode == harden.ModeHAFT && !(inTx && afterAbort) {
		t.Errorf("no snapshot mid-transaction (%v) or after a spontaneous abort (%v)", inTx, afterAbort)
	}
	if c.threads == 2 && !blocked {
		t.Error("no snapshot with a thread blocked on a lock or barrier")
	}

	// The warm machine after Reset passes through the fresh one's states.
	straight.Reset()
	straight.Start(c.specs()...)
	for k, s := range snaps {
		if k > 0 {
			straight.RunUntil(uint64(k) * stride)
		}
		if !straight.Equal(s) {
			t.Fatalf("a machine reused after Reset differs from the fresh one at snapshot %d", k)
		}
	}

	other := c.machine()
	dirty := dirtier(t, c, other, snaps[0])
	for k, s := range snaps {
		stepped.Restore(s)
		stepped.RunUntil(^uint64(0))
		if d := finalOf(stepped).diff(want); d != "" {
			t.Fatalf("resumed from snapshot %d on the same machine: %s", k, d)
		}
		dirty()
		other.Restore(s)
		if !other.Equal(s) {
			t.Fatalf("dirtied machine differs from snapshot %d after Restore", k)
		}
		other.RunUntil(^uint64(0))
		if d := finalOf(other).diff(want); d != "" {
			t.Fatalf("resumed from snapshot %d on a dirtied machine: %s", k, d)
		}
	}
	return draws
}

// TestRestoreEarlierSnapshot: a machine restored to a late snapshot and
// run on holds dirty pages that an earlier snapshot lacks. Restoring the
// earlier one must return them to what they were then, so that the image
// is word for word the one that snapshot was taken from.
func TestRestoreEarlierSnapshot(t *testing.T) {
	for _, c := range snapCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m := c.machine()
			m.Start(c.specs()...)
			early, earlyImage := m.Snapshot(), slices.Clone(m.mem)
			m.RunUntil(300)
			mid, midImage := m.Snapshot(), slices.Clone(m.mem)
			if m.RunUntil(^uint64(0)); m.Status() != StatusOK {
				t.Fatalf("run: %v", m.Status())
			}
			want, late := finalOf(m), m.Snapshot()
			if !(len(early.pages) < len(mid.pages) && len(mid.pages) <= len(late.pages)) {
				t.Fatalf("dirty pages of the three snapshots: %d, %d, %d; want them to grow", len(early.pages), len(mid.pages), len(late.pages))
			}
			for _, to := range []struct {
				s     *Snapshot
				image []uint64
			}{{mid, midImage}, {early, earlyImage}} {
				m.Restore(late)
				m.Restore(mid)
				m.RunUntil(^uint64(0))
				m.Restore(to.s)
				if !slices.Equal(m.mem, to.image) || !m.Equal(to.s) {
					t.Fatalf("restored to the snapshot with %d dirty pages after a run: image or machine differs", len(to.s.pages))
				}
				m.RunUntil(^uint64(0))
				if d := finalOf(m).diff(want); d != "" {
					t.Fatalf("resumed from the snapshot with %d dirty pages: %s", len(to.s.pages), d)
				}
			}
		})
	}
}

// TestSnapshotEqualSeesEveryPart: Equal must notice a difference in
// each kind of state a snapshot holds.
func TestSnapshotEqualSeesEveryPart(t *testing.T) {
	var c snapCase
	for _, sc := range snapCases(t) {
		if sc.name == "haft/2T/compiled" {
			c = sc
		}
	}
	m := c.machine()
	m.Start(c.specs()...)
	// Pause inside a transaction, so that the HTM sets are live.
	for pause := uint64(50); !m.HTM.InTx(0); pause += 50 {
		if m.RunUntil(pause) {
			t.Fatal("run ended before a transaction was open on core 0")
		}
	}
	s := m.Snapshot()
	for name, change := range map[string]func(){
		"register":     func() { m.cores[0].frames[0].regs[0] ^= 1 },
		"readiness":    func() { m.cores[1].frames[0].ready[0]++ },
		"pc":           func() { m.cores[0].frames[0].instr++ },
		"core clock":   func() { m.cores[1].sched.Stall(1) },
		"core scalar":  func() { m.cores[0].counter++ },
		"l1 tags":      func() { m.cores[1].l1tags[5] ^= 1 },
		"stats":        func() { m.stats.CondBranches++ },
		"output":       func() { m.output = append(m.output, 1) },
		"heap pointer": func() { m.heapNext += 64 },
		"lock table":   func() { m.locks[4160] = &lockState{held: true, owner: 1, waiters: []int{0}} },
		"memory word":  func() { m.Poke(4096, m.Peek(4096)^1<<40) },
		"wild memory":  func() { m.Poke(m.memBytes-16, 1) },
		"htm write":    func() { m.HTM.Write(0, 4224, 99, m.cores[0].sched.Now()) },
		"htm stats":    func() { m.HTM.RecordFallback() },
		"tx snapshot":  func() { m.cores[0].snapshot = &txSnapshot{frames: cloneFrames(nil, m.cores[0].frames)} },
		"thread state": func() { m.cores[1].state = threadDone },
	} {
		m.Restore(s)
		if !m.Equal(s) {
			t.Fatalf("%s: restored machine differs from the snapshot", name)
		}
		change()
		if m.Equal(s) {
			t.Errorf("Equal missed a changed %s", name)
		}
	}
}

// TestRestoreRejectsForeignSnapshot: restoring a snapshot of another
// program, core count or memory size must fail loudly, not corrupt the
// run.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	mod := ir.MustParse(snapProg)
	base := New(mod, 2, DefaultConfig())
	s := base.Snapshot()
	base.Restore(s) // fits

	for _, tc := range []struct {
		name, want string
		m          *Machine
	}{
		{"clone of the module", "different program", New(mod.Clone(), 2, DefaultConfig())},
		{"other engine", "different program", NewFromProgram(Compile(mod), 2, DefaultConfig())},
		{"other core count", "2-core snapshot on a 1-core machine", New(mod, 1, DefaultConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("Restore panicked with %v, want a message containing %q", r, tc.want)
				}
			}()
			tc.m.Restore(s)
		})
	}

	// Same program and core count, other memory size: only reachable by
	// building the snapshot's shape by hand, since the size follows from
	// the module.
	odd := *s
	odd.memWords++
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "memory words") {
			t.Fatalf("Restore panicked with %v, want a memory-size message", r)
		}
	}()
	base.Restore(&odd)
}
