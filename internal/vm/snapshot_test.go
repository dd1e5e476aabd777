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
// each kind of state a snapshot holds, also inside a block the snapshot
// shares: a cache-tag block shared with the previous snapshot, and a
// rollback-frame block shared with the live frame.
func TestSnapshotEqualSeesEveryPart(t *testing.T) {
	var c snapCase
	for _, sc := range snapCases(t) {
		if sc.name == "haft/2T/compiled" {
			c = sc
		}
	}
	m := c.machine()
	m.Start(c.specs()...)
	// Pause inside a transaction, so that the HTM sets are live, one
	// instruction after a snapshot that s shares blocks with.
	for pause := uint64(50); !m.HTM.InTx(0); pause += 50 {
		if m.RunUntil(pause) {
			t.Fatal("run ended before a transaction was open on core 0")
		}
	}
	prev := m.Snapshot()
	m.RunUntil(m.stats.DynInstrs + 1)
	if !m.HTM.InTx(0) {
		t.Fatal("the transaction on core 0 ended")
	}
	s := m.Snapshot()
	// A cache-tag block s shares with prev, and a block of core 0's
	// rollback frames that s shares with its live frames.
	tag := -1
	for j, b := range s.cores[1].tags {
		if b == prev.cores[1].tags[j] {
			tag = j
		}
	}
	depth, fb := -1, -1
	for d, fr := range s.cores[0].txFrames {
		for b, blk := range fr.file {
			if d < len(s.cores[0].frames) && b < len(s.cores[0].frames[d].file) && s.cores[0].frames[d].file[b] == blk {
				depth, fb = d, b
			}
		}
	}
	if tag < 0 || depth < 0 {
		t.Fatalf("no tag block shared with the previous snapshot (%d) or rollback block shared with the live frame (%d)", tag, depth)
	}
	for name, change := range map[string]func(){
		"shared l1 tags":     func() { blockAt(m.cores[1].l1tags[:], tag)[7] ^= 1 << 20 },
		"shared tx snapshot": func() { m.cores[0].snapshot.frames[depth].fileWords(fb)[0] ^= 1 },
		"register":           func() { m.cores[0].frames[0].regs[0] ^= 1 },
		"readiness":          func() { m.cores[1].frames[0].ready[0]++ },
		"pc":                 func() { m.cores[0].frames[0].pc++ },
		"core clock":         func() { m.cores[1].sched.Stall(1) },
		"core scalar":        func() { m.cores[0].counter++ },
		"l1 tags":            func() { m.cores[1].l1tags[5] ^= 1 },
		"stats":              func() { m.stats.CondBranches++ },
		"output":             func() { m.output = append(m.output, 1) },
		"heap pointer":       func() { m.heapNext += 64 },
		"lock table":         func() { m.locks[4160] = &lockState{held: true, owner: 1, waiters: []int{0}} },
		"memory word":        func() { m.Poke(4096, m.Peek(4096)^1<<40) },
		"wild memory":        func() { m.Poke(m.memBytes-16, 1) },
		"htm write":          func() { m.HTM.Write(0, 4224, 99, m.cores[0].sched.Now()) },
		"htm stats":          func() { m.HTM.RecordFallback() },
		"tx snapshot":        func() { m.cores[0].snapshot = &txSnapshot{frames: m.cores[0].copyFrames(nil, m.cores[0].frames)} },
		"thread state":       func() { m.cores[1].state = threadDone },
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

	// Paused mid-transaction on a stepwise machine, resumed on a run-ahead
	// one of the same module, and the reverse: both end like a straight
	// run.
	t.Run("stepwise and fused machines of the module", func(t *testing.T) {
		hmod, err := harden.Harden(mod, harden.Config{Mode: harden.ModeHAFT, Opt: harden.OptFaultProp, TxThreshold: 120})
		if err != nil {
			t.Fatal(err)
		}
		stepwise := func() *Machine { return New(hmod, 1, snapConfig()) }
		ahead := func() *Machine { return NewFromProgram(Compile(hmod), 1, snapConfig()) }
		spec := ThreadSpec{Func: "main"}
		straight := ahead()
		if st := straight.Run(spec); st != StatusOK {
			t.Fatalf("straight run: %v (%s)", st, straight.Stats().CrashReason)
		}
		end := straight.Snapshot()
		for _, dir := range []struct {
			name     string
			from, to func() *Machine
		}{{"stepwise to run-ahead", stepwise, ahead}, {"run-ahead to stepwise", ahead, stepwise}} {
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
// The values computed on entry (v11-v43) fill register-file blocks that
// the loop does not change.
const sweepProg = `
global arr bytes=65536

func main(0) {
entry:
  v0 = call @thread.id
  v1 = mul v0, #32768
  v2 = add v1, #4096
  v11 = add v0, #3
  v12 = mul v11, #12
  v13 = mul v12, #13
  v14 = mul v13, #14
  v15 = mul v14, #15
  v16 = mul v15, #16
  v17 = mul v16, #17
  v18 = mul v17, #18
  v19 = mul v18, #19
  v20 = mul v19, #20
  v21 = mul v20, #21
  v22 = mul v21, #22
  v23 = mul v22, #23
  v24 = mul v23, #24
  v25 = mul v24, #25
  v26 = mul v25, #26
  v27 = mul v26, #27
  v28 = mul v27, #28
  v29 = mul v28, #29
  v30 = mul v29, #30
  v31 = mul v30, #31
  v32 = mul v31, #32
  v33 = mul v32, #33
  v34 = mul v33, #34
  v35 = mul v34, #35
  v36 = mul v35, #36
  v37 = mul v36, #37
  v38 = mul v37, #38
  v39 = mul v38, #39
  v40 = mul v39, #40
  v41 = mul v40, #41
  v42 = mul v41, #42
  v43 = mul v42, #43
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
  out v43
  ret
}
`

// flat is a deep copy of the state a snapshot holds as blocks, taken
// from a machine word by word: the oracle the blocks are held to.
type flat struct {
	image    []uint64
	tags     [][]uint64    // per core
	frames   [][]flatFrame // per core
	txFrames [][]flatFrame // per core, nil without a tx snapshot
}

// flatFrame is a frame's files and, in head, the rest of it.
type flatFrame struct {
	head        frame // regs and ready nil
	regs, ready []uint64
}

func flatFrameOf(fr frame, regs, ready []uint64) flatFrame {
	fr.regs, fr.ready = nil, nil
	return flatFrame{fr, slices.Clone(regs), slices.Clone(ready)}
}

func flatOf(m *Machine) flat {
	f := flat{image: m.Image()}
	frames := func(fs []frame) []flatFrame {
		out := []flatFrame{}
		for _, fr := range fs {
			out = append(out, flatFrameOf(fr, fr.regs, fr.ready))
		}
		return out
	}
	for _, c := range m.cores {
		f.tags = append(f.tags, slices.Clone(c.l1tags[:]))
		f.frames = append(f.frames, frames(c.frames))
		var tx []flatFrame
		if c.snapshot != nil {
			tx = frames(c.snapshot.frames)
		}
		f.txFrames = append(f.txFrames, tx)
	}
	return f
}

// pristineImage is the image of a fresh machine of prog.
func pristineImage(prog *Program, memWords int) []uint64 {
	img := make([]uint64, 0, memWords)
	for p := int32(0); len(img) < memWords; p++ {
		img = append(img, prog.page(p)[:min(pageWords, memWords-len(img))]...)
	}
	return img
}

// holds reports whether the snapshot's blocks hold the state f, word for
// word, and every block is zero past the end of the words it holds.
func (s *Snapshot) holds(t *testing.T, f flat) bool {
	t.Helper()
	for lo, p := 0, int32(0); lo < s.memWords; lo, p = lo+pageWords, p+1 {
		n := min(pageWords, s.memWords-lo)
		blocks := s.page(p)
		if blocks == nil {
			if !slices.Equal(s.prog.page(p)[:n], f.image[lo:lo+n]) {
				return false
			}
			continue
		}
		for j, b := range blocks {
			from, to := min(j*blockWords, n), min((j+1)*blockWords, n)
			if !slices.Equal(b[:to-from], f.image[lo+from:lo+to]) {
				return false
			}
			if !allZero(b[to-from:]) {
				t.Fatalf("page %d holds a word past the end of the image", p)
			}
		}
	}
	return reflect.DeepEqual(s.flatRest(t), flat{nil, f.tags, f.frames, f.txFrames})
}

func allZero(words []uint64) bool {
	return !slices.ContainsFunc(words, func(w uint64) bool { return w != 0 })
}

// flatRest materialises the snapshot's blocks other than memory as a
// flat copy.
func (s *Snapshot) flatRest(t *testing.T) flat {
	t.Helper()
	var f flat
	frames := func(fs []frameSnap) []flatFrame {
		if fs == nil {
			return nil
		}
		out := []flatFrame{}
		for _, fr := range fs {
			var file []uint64
			for _, b := range fr.file {
				file = append(file, b[:]...)
			}
			half := len(file) / 2
			if half < fr.nregs || !allZero(file[fr.nregs:half]) || !allZero(file[half+fr.nregs:]) {
				t.Fatalf("a register file of %d registers in %d words, or nonzero past its end", fr.nregs, len(file))
			}
			out = append(out, flatFrameOf(fr.frame, file[:fr.nregs], file[half:half+fr.nregs]))
		}
		return out
	}
	for i := range s.cores {
		c := &s.cores[i]
		var tags []uint64
		for _, b := range c.tags {
			tags = append(tags, b[:]...)
		}
		f.tags = append(f.tags, tags)
		f.frames = append(f.frames, frames(c.frames))
		f.txFrames = append(f.txFrames, frames(c.txFrames))
	}
	return f
}

// sweepSnapshots runs sweepProg hardened by HAFT on two threads with a
// snapshot every 3000 instructions, and returns the program, the
// snapshots and a flat copy of the machine at each.
func sweepSnapshots(t *testing.T) (*Program, []*Snapshot, []flat) {
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
	snaps, flats := []*Snapshot{m.Snapshot()}, []flat{flatOf(m)}
	for !m.RunUntil(uint64(len(snaps)) * stride) {
		snaps = append(snaps, m.Snapshot())
		flats = append(flats, flatOf(m))
	}
	if m.Status() != StatusOK {
		t.Fatalf("run: %v (%s)", m.Status(), m.Stats().CrashReason)
	}
	return prog, snaps, flats
}

// TestSnapshotSharesUnchangedBlocks: at every boundary of a run, a block
// of memory, of a core's cache tags or of a register file is shared —
// with the same block of the previous snapshot, with the Program's
// pristine page (a page the previous snapshot did not hold), or with the
// live frame (a block of a rollback frame) — exactly when it holds the
// same words; a block that changed is an array no earlier snapshot
// holds; and the blocks hold the machine's state word for word. Bytes,
// summed along the snapshots or along every second or fourth of them,
// counts each array once.
func TestSnapshotSharesUnchangedBlocks(t *testing.T) {
	prog, snaps, flats := sweepSnapshots(t)
	if len(snaps) < 20 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	seen := map[any]bool{} // every block array of the snapshots so far
	type tally struct{ shared, copied int }
	kinds := map[string]*tally{"memory": {}, "tags": {}, "registers": {}, "rollback registers": {}, "rollback from live": {}}
	// check holds one block to the rule: it must be want if that is not
	// nil (the array it shares), else an array no earlier snapshot holds.
	check := func(k int, kind, where string, got, want any, fresh bool) {
		t.Helper()
		switch {
		case !fresh && got != want:
			t.Errorf("snapshot %d: %s %s did not change but was copied", k, kind, where)
		case fresh && seen[got]:
			t.Errorf("snapshot %d: %s %s changed but shares an earlier snapshot's array", k, kind, where)
		case fresh:
			kinds[kind].copied++
		default:
			kinds[kind].shared++
		}
	}
	fresh := flat{image: pristineImage(prog, snaps[0].memWords)}
	for k, s := range snaps {
		if !s.holds(t, flats[k]) {
			t.Fatalf("snapshot %d does not hold the machine's state", k)
		}
		var old *Snapshot
		before, now := fresh, flats[k]
		if k > 0 {
			old, before = snaps[k-1], flats[k-1]
		}
		for i, p := range s.pages {
			was := old.page(p)
			for j, b := range s.pageAt(i) {
				lo := int(p)*pageWords + j*blockWords
				hi := min(lo+blockWords, len(now.image))
				want := any(blockAt(prog.page(p)[:], j))
				if was != nil {
					want = was[j]
				}
				unchanged := lo >= hi || slices.Equal(before.image[lo:hi], now.image[lo:hi])
				check(k, "memory", fmt.Sprintf("page %d block %d", p, j), b, want, !unchanged)
			}
		}
		for ci := range s.cores {
			c, pc := &s.cores[ci], &noCore
			if old != nil {
				pc = &old.cores[ci]
			}
			for j, b := range c.tags {
				unchanged := k > 0 && slices.Equal(before.tags[ci][j*blockWords:(j+1)*blockWords], now.tags[ci][j*blockWords:(j+1)*blockWords])
				check(k, "tags", fmt.Sprintf("core %d block %d", ci, j), b, pc.tags[j], !unchanged)
			}
			// The frames of a file block, in the order sharing tries them.
			type source struct {
				kind   string
				flat   []flatFrame
				blocks []frameSnap
			}
			sources := func(live bool) []source {
				var src []source
				if k > 0 && live {
					src = append(src, source{"registers", before.frames[ci], pc.frames})
				}
				if k > 0 && !live {
					src = append(src, source{"rollback registers", before.txFrames[ci], pc.txFrames})
				}
				if !live {
					src = append(src, source{"rollback from live", now.frames[ci], c.frames})
				}
				return src
			}
			for _, stack := range []struct {
				kind   string
				live   bool
				blocks []frameSnap
				flat   []flatFrame
			}{{"registers", true, c.frames, now.frames[ci]}, {"rollback registers", false, c.txFrames, now.txFrames[ci]}} {
				for d, fr := range stack.blocks {
					for b, blk := range fr.file {
						words := fileWordsOf(stack.flat[d], b)
						kind, want := stack.kind, any(nil)
						for _, src := range sources(stack.live) {
							if d < len(src.flat) && src.flat[d].head.fn == fr.fn && slices.Equal(fileWordsOf(src.flat[d], b), words) {
								kind, want = src.kind, src.blocks[d].file[b]
								break
							}
						}
						check(k, kind, fmt.Sprintf("core %d depth %d block %d", ci, d, b), blk, want, want == nil)
					}
				}
			}
		}
		mem, tags, files := s.blockArrays()
		for _, b := range slices.Concat(mem, tags) {
			seen[b] = true
		}
		for _, b := range files {
			seen[b] = true
		}
	}
	for kind, n := range kinds {
		t.Logf("%d snapshots: %s blocks %d shared, %d copied", len(snaps), kind, n.shared, n.copied)
		if n.shared == 0 || kind != "rollback from live" && n.copied < len(snaps)/2 {
			t.Errorf("%s blocks: %d shared, %d copied: the run does not exercise both", kind, n.shared, n.copied)
		}
	}

	pristine := map[*block]bool{}
	for p := int32(0); int(p)*pageWords < snaps[0].memWords; p++ {
		for j := range pageBlocks {
			pristine[blockAt(prog.page(p)[:], j)] = true
		}
	}
	for _, every := range []int{1, 2, 4} {
		distinct := map[any]bool{}
		var want, got SnapshotBytes
		var prev *Snapshot
		for k := 0; k < len(snaps); k += every {
			s := snaps[k]
			got = got.Plus(s.Bytes(prev))
			prev = s
			want = want.Plus(s.Bytes(s)) // what the snapshot holds besides block arrays
			mem, tags, files := s.blockArrays()
			for _, b := range mem {
				if !distinct[b] && !pristine[b] {
					want.Memory += 8 * blockWords
				}
				distinct[b] = true
			}
			for _, b := range tags {
				if !distinct[b] {
					want.Tags += 8 * blockWords
				}
				distinct[b] = true
			}
			for _, b := range files {
				if !distinct[b] {
					want.Registers += 8 * fileBlockRegs
				}
				distinct[b] = true
			}
		}
		if got != want {
			t.Errorf("every %d snapshots: Bytes sums to %+v, the distinct block arrays give %+v", every, got, want)
		}
	}
}

// fileWordsOf returns the words of block b of a flat frame's files, as
// frame.fileWords does for a live frame.
func fileWordsOf(fr flatFrame, b int) []uint64 {
	f := frame{regs: fr.regs, ready: fr.ready}
	return f.fileWords(b)
}

// TestSnapshotsImmutableUnderRestore: snapshots that share block arrays
// stay as they were taken while two machines concurrently restore every
// sixth of them, run each to its end with a memory-cell fault armed and
// snapshot the result. go test -race also sees a write into a shared
// array here.
func TestSnapshotsImmutableUnderRestore(t *testing.T) {
	prog, snaps, _ := sweepSnapshots(t)
	copies := make([][]uint64, len(snaps))
	for k, s := range snaps {
		copies[k] = blockWordsOf(s)
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
		if !slices.Equal(blockWordsOf(s), copies[k]) {
			t.Fatalf("snapshot %d changed after it was taken", k)
		}
	}
}

// blockWordsOf returns the words of all the snapshot's blocks.
func blockWordsOf(s *Snapshot) []uint64 {
	var words []uint64
	mem, tags, files := s.blockArrays()
	for _, b := range slices.Concat(mem, tags) {
		words = append(words, b[:]...)
	}
	for _, b := range files {
		words = append(words, b[:]...)
	}
	return words
}

// blockArrays returns the snapshot's block arrays: of memory, of the
// cache tags, and of the live and rollback register files.
func (s *Snapshot) blockArrays() (mem, tags []*block, files []*fileBlock) {
	for i := range s.cores {
		c := &s.cores[i]
		tags = append(tags, c.tags[:]...)
		for _, fs := range [][]frameSnap{c.frames, c.txFrames} {
			for _, fr := range fs {
				files = append(files, fr.file...)
			}
		}
	}
	return s.mem, tags, files
}

// flatEqual is Equal written field by field over flat copies: the
// oracle FuzzSnapshotRestore holds Equal to. The HTM system is compared
// by its own Equal, which treats its sets as sets.
func flatEqual(t *testing.T, m *Machine, f flat, s *Snapshot) bool {
	t.Helper()
	if m.stats != s.stats || m.status != s.status || m.heapNext != s.heapNext || m.nthreads != s.nthreads ||
		!slices.Equal(m.output, s.output) || tableView(m.locks) != tableView(s.locks) ||
		tableView(m.barriers) != tableView(s.barriers) || !m.HTM.Equal(s.htm) {
		return false
	}
	for i, c := range m.cores {
		sc := &s.cores[i]
		if c.coreState != sc.coreState || c.sched != sc.sched || !slices.Equal(c.elided, sc.elided) {
			return false
		}
	}
	return s.holds(t, f)
}

// tableView prints a lock or barrier table by value, a nil and an empty
// list alike.
func tableView[V any](table map[uint64]*V) string {
	byValue := map[uint64]V{}
	for a, v := range table {
		byValue[a] = *v
	}
	return fmt.Sprintf("%v", byValue)
}

// FuzzSnapshotRestore: the input picks where a run of the 2-thread HAFT
// snapshot program pauses for a snapshot, then in which order the
// snapshots are restored and whether each restored run pauses once more
// on its way to the end. Every restored run must end like the
// uninterrupted one, and at every restore and pause Equal must agree
// with a field-by-field comparison against every snapshot.
//
// The input is: one byte for the number of snapshots (1-8), one byte
// each for the distance to the next pause (1 + 16*b instructions), then
// one byte per restore: its low bits pick the snapshot, its high bit a
// pause halfway to the next snapshot's instruction count.
func FuzzSnapshotRestore(f *testing.F) {
	mod, err := harden.Harden(ir.MustParse(snapProg), harden.Config{Mode: harden.ModeHAFT, Opt: harden.OptFaultProp, TxThreshold: 120})
	if err != nil {
		f.Fatal(err)
	}
	c := snapCase{name: "haft/2T/compiled", mode: harden.ModeHAFT, threads: 2, mod: mod, prog: Compile(mod)}
	straight := c.machine()
	if st := straight.Run(c.specs()...); st != StatusOK {
		f.Fatalf("straight run: %v (%s)", st, straight.Stats().CrashReason)
	}
	want := finalOf(straight)
	f.Add([]byte{3, 20, 40, 60, 2, 0x81, 0})
	f.Add([]byte{5, 0, 1, 255, 9, 30, 4, 0x83, 1, 0x80})
	f.Add([]byte{8, 3, 7, 11, 13, 17, 19, 23, 29, 7, 0x86, 5, 0x84, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		m := c.machine()
		m.Start(c.specs()...)
		snaps, at := []*Snapshot{m.Snapshot()}, []uint64{0}
		for ; len(snaps) < n && len(data) > 0; data = data[1:] {
			pause := m.stats.DynInstrs + 1 + 16*uint64(data[0])
			if m.RunUntil(pause) {
				break
			}
			snaps, at = append(snaps, m.Snapshot()), append(at, m.stats.DynInstrs)
		}
		// agree checks Equal against the oracle on every snapshot; the
		// machine must equal snapshot k, if k >= 0.
		agree := func(k int) {
			fm := flatOf(m)
			for j, s := range snaps {
				eq := m.Equal(s)
				if eq != flatEqual(t, m, fm, s) {
					t.Fatalf("Equal to snapshot %d is %v, the field-by-field comparison says otherwise", j, eq)
				}
				if j == k && !eq {
					t.Fatalf("the machine restored to snapshot %d does not equal it", k)
				}
			}
		}
		for i, b := range data {
			if i == 16 {
				break
			}
			k := int(b&0x7f) % len(snaps)
			m.Restore(snaps[k])
			agree(k)
			if b&0x80 != 0 && k+1 < len(snaps) && !m.RunUntil((at[k]+at[k+1])/2) {
				agree(-1)
			}
			m.RunUntil(^uint64(0))
			if d := finalOf(m).diff(want); d != "" {
				t.Fatalf("restored to snapshot %d and run to the end: %s", k, d)
			}
		}
	})
}
