// Machine snapshots: a paused run (RunUntil) can be captured, restored
// into any machine built from the same module, and compared against.
// fault.RunCampaign uses the three together: it snapshots its reference
// run at instruction-count boundaries, starts every injection from the
// last snapshot before the fault site, and stops a run whose state has
// become equal to the reference's again.
package vm

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/ir"
)

// pageWords is the granularity of a snapshot's memory image (4 KiB).
const pageWords = 512

// Snapshot is a deep copy of everything a run can change in a Machine.
// It is immutable and may be restored into several machines
// concurrently. Memory is kept as the machine's dirty pages: every other
// page is pristine (see Machine.mem), which is most of them.
type Snapshot struct {
	// The shape the snapshot fits: Restore and Equal refuse any other.
	mod      *ir.Module
	ncores   int
	memWords int

	pages []int32  // the dirty pages, ascending
	data  []uint64 // their contents, back to back

	cores    []coreSnap
	locks    map[uint64]*lockState
	barriers map[uint64]*barrierState
	heapNext uint64
	output   []uint64
	nthreads int
	status   Status
	stats    RunStats
	htm      *htm.Snapshot
}

// coreSnap is the captured state of one core.
type coreSnap struct {
	coreState
	sched    cpu.Sched
	frames   []frame
	txFrames []frame // the frames of the active tx snapshot, nil without one
	elided   []uint64
}

// Stats returns the run statistics at the time of the snapshot (without
// the end-of-run cycle totals, which finishing a run adds).
func (s *Snapshot) Stats() RunStats { return s.stats }

// Bytes estimates the memory the snapshot holds.
func (s *Snapshot) Bytes() int {
	n := 8*len(s.data) + 4*len(s.pages) + 8*len(s.output) + s.htm.Bytes()
	for i := range s.cores {
		c := &s.cores[i]
		n += 8*l1Sets + 8*len(c.elided)
		for _, frames := range [][]frame{c.frames, c.txFrames} {
			for j := range frames {
				n += 16 * len(frames[j].regs)
			}
		}
	}
	return n
}

// Snapshot captures the machine. Take it before Start, or after
// RunUntil paused; armed fault plans, tracers and rings are not part
// of it.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		mod: m.Mod, ncores: len(m.cores), memWords: len(m.mem),
		cores:    make([]coreSnap, len(m.cores)),
		locks:    make(map[uint64]*lockState, len(m.locks)),
		barriers: make(map[uint64]*barrierState, len(m.barriers)),
		heapNext: m.heapNext,
		output:   slices.Clone(m.output),
		nthreads: m.nthreads,
		status:   m.status,
		stats:    m.stats,
		htm:      m.HTM.Snapshot(),
	}
	s.pages = slices.Clone(m.dirty)
	slices.Sort(s.pages)
	s.data = make([]uint64, 0, len(s.pages)*pageWords)
	for _, p := range s.pages {
		lo, hi := m.pageSpan(p)
		s.data = append(s.data, m.mem[lo:hi]...)
	}
	copyLocks(s.locks, m.locks)
	copyBarriers(s.barriers, m.barriers)
	for i, c := range m.cores {
		s.cores[i] = coreSnap{
			coreState: c.coreState,
			sched:     *c.sched,
			frames:    cloneFrames(nil, c.frames),
			elided:    slices.Clone(c.elided),
		}
		if c.snapshot != nil {
			s.cores[i].txFrames = cloneFrames(nil, c.snapshot.frames)
		}
	}
	return s
}

// Restore puts the machine into the snapshot's state, whatever it ran
// since — including a crashed run that stored to wild addresses: a
// restored machine continues bit-identically to the one the snapshot
// was taken from. Like Reset it disarms fault plans and keeps tracers
// and rings. The snapshot must come from a machine of the same module,
// core count and memory size; it may have dispatched stepwise or
// fused.
func (m *Machine) Restore(s *Snapshot) {
	m.mustFit(s, "Restore")
	// The snapshot's pages get its contents and become the dirty set; the
	// machine's other dirty pages become pristine.
	for _, p := range m.dirty {
		m.isDirty[p] = false
	}
	off := 0
	for _, p := range s.pages {
		lo, hi := m.pageSpan(p)
		off += copy(m.mem[lo:hi], s.data[off:])
		m.isDirty[p] = true
	}
	for _, p := range m.dirty {
		if !m.isDirty[p] {
			m.pristine(p)
		}
	}
	m.dirty = append(m.dirty[:0], s.pages...)

	for i, c := range m.cores {
		sc := &s.cores[i]
		c.coreState = sc.coreState
		*c.sched = sc.sched
		c.frames = c.copyFrames(c.frames, sc.frames)
		c.snapshot = nil
		if sc.txFrames != nil {
			c.txbuf.frames = c.copyFrames(c.txbuf.frames, sc.txFrames)
			c.snapshot = &c.txbuf
		}
		c.elided = append(c.elided[:0], sc.elided...)
	}
	copyLocks(m.locks, s.locks)
	copyBarriers(m.barriers, s.barriers)
	m.heapNext = s.heapNext
	m.output = slices.Clone(s.output)
	m.nthreads = s.nthreads
	m.status = s.status
	m.stats = s.stats
	m.faults = nil
	m.HTM.Restore(s.htm)
}

// Equal reports whether the machine is in exactly the snapshot's state.
// Equality, not a digest: when it holds, the rest of the run is the
// rest of the snapshotted run, provided no armed fault plan is still to
// fire. The comparisons are ordered cheapest and most-likely-different
// first; memory comes last.
func (m *Machine) Equal(s *Snapshot) bool {
	m.mustFit(s, "Equal")
	if m.stats != s.stats || m.status != s.status || m.heapNext != s.heapNext ||
		m.nthreads != s.nthreads || len(m.output) != len(s.output) {
		return false
	}
	for i, c := range m.cores {
		sc := &s.cores[i]
		if *c.sched != sc.sched || !framesEqual(c.frames, sc.frames) || c.coreState != sc.coreState ||
			!slices.Equal(c.elided, sc.elided) {
			return false
		}
		if (c.snapshot != nil) != (sc.txFrames != nil) ||
			c.snapshot != nil && !framesEqual(c.snapshot.frames, sc.txFrames) {
			return false
		}
	}
	if !maps.EqualFunc(m.locks, s.locks, func(a, b *lockState) bool {
		return a.held == b.held && a.owner == b.owner && slices.Equal(a.waiters, b.waiters)
	}) || !maps.EqualFunc(m.barriers, s.barriers, func(a, b *barrierState) bool {
		return a.need == b.need && slices.Equal(a.arrived, b.arrived)
	}) {
		return false
	}
	if !m.HTM.Equal(s.htm) || !slices.Equal(m.output, s.output) {
		return false
	}
	// Memory can differ only on a page dirty on either side.
	off := 0
	for _, p := range s.pages {
		lo, hi := m.pageSpan(p)
		if !slices.Equal(m.mem[lo:hi], s.data[off:off+hi-lo]) {
			return false
		}
		off += hi - lo
	}
	for _, p := range m.dirty {
		if _, held := slices.BinarySearch(s.pages, p); !held && !m.isPristine(p) {
			return false
		}
	}
	return true
}

// mustFit panics unless the snapshot was taken from a machine of this
// machine's shape: restoring frames that point into another module, or
// a memory image of another size, would corrupt the run silently.
// The module decides, not the *Program: a Program is a pure function
// of its immutable module, so a frame's code pointer into another
// machine's compilation of the module runs the same code.
func (m *Machine) mustFit(s *Snapshot, op string) {
	switch {
	case s.mod != m.Mod:
		panic("vm: " + op + " of a snapshot taken from a different module")
	case s.ncores != len(m.cores):
		panic(fmt.Sprintf("vm: %s of a %d-core snapshot on a %d-core machine", op, s.ncores, len(m.cores)))
	case s.memWords != len(m.mem):
		panic(fmt.Sprintf("vm: %s of a snapshot with %d memory words on a machine with %d", op, s.memWords, len(m.mem)))
	}
}

// cloneFrames appends deep copies of src to dst, with files of their own
// that no core's free list will ever see.
func cloneFrames(dst, src []frame) []frame {
	for i := range src {
		dst = append(dst, src[i].withFile(make([]uint64, 2*len(src[i].regs))))
	}
	return dst
}

func framesEqual(a, b []frame) bool {
	if len(a) != len(b) {
		return false
	}
	// Innermost frame first: it is where a diverged run differs.
	for i := len(a) - 1; i >= 0; i-- {
		x, y := &a[i], &b[i]
		if x.fn != y.fn || x.block != y.block || x.instr != y.instr || x.prevBlk != y.prevBlk ||
			x.base != y.base || x.retReg != y.retReg || x.retReady != y.retReady ||
			!slices.Equal(x.regs, y.regs) || !slices.Equal(x.ready, y.ready) {
			return false
		}
	}
	return true
}

// copyLocks makes dst a deep copy of src.
func copyLocks(dst, src map[uint64]*lockState) {
	clear(dst)
	for a, lk := range src {
		dst[a] = &lockState{held: lk.held, owner: lk.owner, waiters: slices.Clone(lk.waiters)}
	}
}

// copyBarriers makes dst a deep copy of src.
func copyBarriers(dst, src map[uint64]*barrierState) {
	clear(dst)
	for a, b := range src {
		dst[a] = &barrierState{need: b.need, arrived: slices.Clone(b.arrived)}
	}
}
