package vm

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
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
	return snapFinal{m.Status(), m.Stats(), m.HTM.Stats, slices.Clone(m.Output()), m.Image()}
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

// snapCase is one (mode, threads, dispatch) cell of the property tests.
type snapCase struct {
	name    string
	mode    harden.Mode
	threads int
	mod     *ir.Module
	prog    *Program // nil: stepwise dispatch (New)
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
	// The heap has no initialisers, so only its dirty pages can hold a
	// nonzero word.
	heapDirtied := func() bool {
		lo, hi := m.Mod.HeapBase/8, (m.Mod.HeapBase+m.Mod.HeapBytes)/8
		for _, p := range m.dirty {
			for w := max(lo, uint64(p)*pageWords); w < min(hi, uint64(p+1)*pageWords); w++ {
				if m.word(w) != 0 {
					return true
				}
			}
		}
		return false
	}
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
		return m.Status() != StatusOK && heapDirtied()
	}
	for target := uint64(0); target < 200; target++ {
		if run(target) {
			return func() { run(target) }
		}
	}
	t.Fatalf("%s: no address fault stored into the unused heap of a run that then failed", c.name)
	return nil
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
			early, earlyImage := m.Snapshot(), m.Image()
			m.RunUntil(300)
			mid, midImage := m.Snapshot(), m.Image()
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
				if !m.ImageIs(to.image) || !m.Equal(to.s) {
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
// module, core count or memory size must fail loudly, not corrupt the
// run. A machine of the same module fits whichever way it dispatches.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	mod := ir.MustParse(snapProg)
	base := New(mod, 2, DefaultConfig())
	s := base.Snapshot()
	base.Restore(s) // fits

	// Paused mid-transaction on a stepwise machine, resumed on a fused one
	// of the same module, and the reverse: both end like a straight run.
	t.Run("stepwise and fused machines of the module", func(t *testing.T) {
		hmod, err := harden.Harden(mod, harden.Config{Mode: harden.ModeHAFT, Opt: harden.OptFaultProp, TxThreshold: 120})
		if err != nil {
			t.Fatal(err)
		}
		stepwise := func() *Machine { return New(hmod, 1, snapConfig()) }
		fused := func() *Machine { return NewFromProgram(Compile(hmod), 1, snapConfig()) }
		spec := ThreadSpec{Func: "main"}
		straight := fused()
		if st := straight.Run(spec); st != StatusOK {
			t.Fatalf("straight run: %v (%s)", st, straight.Stats().CrashReason)
		}
		end := straight.Snapshot()
		for _, dir := range []struct {
			name     string
			from, to func() *Machine
		}{{"stepwise to fused", stepwise, fused}, {"fused to stepwise", fused, stepwise}} {
			from, to := dir.from(), dir.to()
			from.Start(spec)
			for pause := uint64(50); !from.HTM.InTx(0); pause += 50 {
				if from.RunUntil(pause) {
					t.Fatalf("%s: run ended before a transaction was open", dir.name)
				}
			}
			to.Restore(from.Snapshot())
			if !to.RunUntil(^uint64(0)) || !to.Equal(end) {
				t.Fatalf("%s: the resumed run ends %v (%s), not like the straight run",
					dir.name, to.Status(), to.Stats().CrashReason)
			}
		}
	})

	for _, tc := range []struct {
		name, want string
		m          *Machine
	}{
		{"clone of the module", "different module", New(mod.Clone(), 2, DefaultConfig())},
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

// sweepProg makes each of two threads sweep its own 32 KiB half of arr
// one word per iteration and wrap around once, so that between two
// nearby snapshots a few pages change and the rest stay as they were.
const sweepProg = `
global arr bytes=65536

func main(0) {
entry:
  v0 = call @thread.id
  v1 = mul v0, #32768
  v2 = add v1, #4096
  jmp loop
loop:
  v3 = phi #0 [entry], v9 [loop]
  v4 = mul v3, #8
  v5 = and v4, #32767
  v6 = add v2, v5
  v7 = load v6
  v8 = add v7, v3
  store v6, v8
  v9 = add v3, #1
  v10 = cmp lt v9, #4800
  br v10, loop, done
done:
  out v8
  ret
}
`

// sweepSnapshots runs sweepProg hardened by HAFT on two threads with a
// snapshot every 3000 instructions, and returns the program, the
// snapshots and a flat copy of the image at each.
func sweepSnapshots(t *testing.T) (*Program, []*Snapshot, [][]uint64) {
	t.Helper()
	mod, err := harden.Harden(ir.MustParse(sweepProg), harden.Config{Mode: harden.ModeHAFT, Opt: harden.OptFaultProp, TxThreshold: 120})
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(mod)
	if a := mod.Global("arr").Addr; a != 4096 {
		t.Fatalf("arr laid out at %d, the program assumes 4096", a)
	}
	m := NewFromProgram(prog, 2, snapConfig())
	specs := []ThreadSpec{{Func: "main"}, {Func: "main"}}
	m.Start(specs...)
	const stride = 3000
	snaps, images := []*Snapshot{m.Snapshot()}, [][]uint64{m.Image()}
	for !m.RunUntil(uint64(len(snaps)) * stride) {
		snaps = append(snaps, m.Snapshot())
		images = append(images, m.Image())
	}
	if m.Status() != StatusOK {
		t.Fatalf("run: %v (%s)", m.Status(), m.Stats().CrashReason)
	}
	return prog, snaps, images
}

// TestSnapshotSharesUnchangedPages: a page whose words did not change
// between two snapshots of a machine is the same array in both, and a
// page that changed, or was first stored to, is an array no earlier
// snapshot holds. Bytes, summed along the snapshots or along every
// second or fourth of them, counts each array once.
func TestSnapshotSharesUnchangedPages(t *testing.T) {
	_, snaps, images := sweepSnapshots(t)
	if len(snaps) < 20 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	pageOf := func(img []uint64, p int32) []uint64 {
		lo := int(p) * pageWords
		return img[lo:min(lo+pageWords, len(img))]
	}
	seen := map[*[pageWords]uint64]bool{}
	shared, copied := 0, 0
	for k, s := range snaps {
		var old *Snapshot
		if k > 0 {
			old = snaps[k-1]
		}
		for i, p := range s.pages {
			unchanged := old.page(p) != nil && slices.Equal(pageOf(images[k-1], p), pageOf(images[k], p))
			switch {
			case unchanged && s.data[i] != old.page(p):
				t.Errorf("snapshot %d: page %d did not change but was copied", k, p)
			case !unchanged && seen[s.data[i]]:
				t.Errorf("snapshot %d: page %d changed but shares an earlier snapshot's array", k, p)
			case unchanged:
				shared++
			default:
				copied++
			}
			if !slices.Equal(s.data[i][:len(pageOf(images[k], p))], pageOf(images[k], p)) {
				t.Fatalf("snapshot %d: page %d does not hold the image's words", k, p)
			}
		}
		for _, a := range s.data {
			seen[a] = true
		}
	}
	t.Logf("%d snapshots: %d pages shared, %d copied", len(snaps), shared, copied)
	if shared == 0 || copied <= len(snaps) {
		t.Fatalf("%d pages shared, %d copied: the run does not exercise both", shared, copied)
	}

	for _, every := range []int{1, 2, 4} {
		distinct := map[*[pageWords]uint64]bool{}
		want, got := 0, 0
		var prev *Snapshot
		for k := 0; k < len(snaps); k += every {
			s := snaps[k]
			got += s.Bytes(prev)
			prev = s
			want += s.Bytes(s) // what the snapshot holds besides page arrays
			for _, a := range s.data {
				if !distinct[a] {
					distinct[a] = true
					want += 8 * pageWords
				}
			}
		}
		if got != want {
			t.Errorf("every %d snapshots: Bytes sums to %d, the distinct page arrays give %d", every, got, want)
		}
	}
}

// TestSnapshotsImmutableUnderRestore: snapshots that share page arrays
// stay as they were taken while two machines concurrently restore every
// sixth of them, run each to its end with a memory-cell fault armed and
// snapshot the result. go test -race also sees a write into a shared
// array here.
func TestSnapshotsImmutableUnderRestore(t *testing.T) {
	prog, snaps, _ := sweepSnapshots(t)
	copies := make([][][pageWords]uint64, len(snaps))
	for k, s := range snaps {
		for _, a := range s.data {
			copies[k] = append(copies[k], *a)
		}
	}
	var wg sync.WaitGroup
	fired := make([]int, 2)
	for w := range fired {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewFromProgram(prog, 2, snapConfig())
			for k := 0; k < len(snaps); k += 6 {
				s := snaps[k]
				m.Restore(s)
				p := &FaultPlan{Model: FaultMemory, TargetIndex: s.Stats().MemAccesses + uint64(3*w+k%5), Mask: 1 << (k % 61)}
				m.SetFaultPlan(p)
				m.RunUntil(^uint64(0))
				m.Snapshot()
				if p.Injected {
					fired[w]++
				}
			}
		}()
	}
	wg.Wait()
	if runs := (len(snaps) + 5) / 6; fired[0] < runs/2 || fired[1] < runs/2 {
		t.Fatalf("memory faults fired in %v of %d runs per machine", fired, runs)
	}
	for k, s := range snaps {
		for i, p := range s.pages {
			if *s.data[i] != copies[k][i] {
				t.Fatalf("page %d of snapshot %d changed after it was taken", p, k)
			}
		}
	}
}
