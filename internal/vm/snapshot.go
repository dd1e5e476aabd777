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

// Snapshot is a deep copy of everything a run can change in a Machine.
// It is immutable and may be restored into several machines
// concurrently. Memory is kept as the machine's dirty pages: every other
// page is pristine (see Machine.mem), which is most of them. The dirty
// pages, each core's cache tags and the register files are held as
// blocks, immutable arrays of a few hundred bytes at most. A block whose
// words have not changed since the machine's previous snapshot is that
// snapshot's array; a block of a page first stored to since then is
// compared with the Program's pristine page instead, and points into it
// when unchanged; and a block of an open transaction's rollback frame
// that holds the words of the live frame's is the live frame's. So a
// sequence of snapshots holds one copy of a block per change to it.
type Snapshot struct {
	// The shape the snapshot fits: Restore and Equal refuse any other.
	mod      *ir.Module
	ncores   int
	memWords int

	// prog is the Program of the machine the snapshot was taken from:
	// its pristine pages are the arrays unchanged blocks of newly dirtied
	// pages point into.
	prog  *Program
	pages []int32  // the dirty pages, ascending
	mem   []*block // their blocks, pageBlocks per page in pages' order

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

// The blocks of a snapshot.
const (
	// blockWords is the size of a memory or cache-tag block: 64 words,
	// 512 bytes.
	blockWords = 64
	pageBlocks = pageWords / blockWords // blocks per memory page
	tagBlocks  = l1Sets / blockWords    // blocks per core's cache tags
	// fileBlockRegs is the size of a register-file block: 16 registers,
	// 128 bytes.
	fileBlockRegs = 16
)

type (
	block     [blockWords]uint64
	fileBlock [fileBlockRegs]uint64
)

// blockAt returns block j of a page or of a core's cache tags.
func blockAt(words []uint64, j int) *block { return (*block)(words[j*blockWords:]) }

// coreSnap is the captured state of one core.
type coreSnap struct {
	coreState
	sched    cpu.Sched
	tags     [tagBlocks]*block
	frames   []frameSnap
	txFrames []frameSnap // the frames of the active tx snapshot, nil without one
	elided   []uint64
}

// noCore stands for the core of an absent previous snapshot: it shares
// no block.
var noCore coreSnap

// frameSnap is a captured frame. Its regs and ready are nil: file holds
// the nregs registers in blocks of fileBlockRegs and then their
// readiness the same way, the last block of each zero past the end.
type frameSnap struct {
	frame
	nregs int
	file  []*fileBlock
}

// fileWords returns the words of block b of the frame's files: a block
// of regs, then of ready.
func (fr *frame) fileWords(b int) []uint64 {
	f, nb := fr.regs, fileBlocks(len(fr.regs))
	if b >= nb {
		f, b = fr.ready, b-nb
	}
	return f[b*fileBlockRegs : min((b+1)*fileBlockRegs, len(f))]
}

// fileBlocks is the number of blocks a file of n registers takes.
func fileBlocks(n int) int { return (n + fileBlockRegs - 1) / fileBlockRegs }

// Stats returns the run statistics at the time of the snapshot (without
// the end-of-run cycle totals, which finishing a run adds).
func (s *Snapshot) Stats() RunStats { return s.stats }

// SnapshotBytes is an estimate of the memory a snapshot holds, by part.
type SnapshotBytes struct {
	Memory    int // the dirty pages' blocks and their index
	Tags      int // the cores' cache-tag blocks
	Registers int // the register-file blocks of live and rollback frames
	HTM       int // the open transactions' sets and write buffers
	Other     int // output and elided locks
}

// Total is the sum of the parts.
func (b SnapshotBytes) Total() int { return b.Memory + b.Tags + b.Registers + b.HTM + b.Other }

// Plus returns the sum of b and o, part by part.
func (b SnapshotBytes) Plus(o SnapshotBytes) SnapshotBytes {
	return SnapshotBytes{b.Memory + o.Memory, b.Tags + o.Tags, b.Registers + o.Registers, b.HTM + o.HTM, b.Other + o.Other}
}

// Bytes estimates the memory the snapshot holds beyond what it shares
// with prev (nil: the whole snapshot) and with the Program. A block
// array lives in an unbroken run of a machine's snapshots, since a
// snapshot shares blocks only with the one taken or restored just
// before it (and with itself: a rollback frame's block with the live
// frame's), and always at the same place: the same block of a page, of
// a core's tags, or of the frames at one depth of a core. So summed over
// snapshots of one machine in the order it took them, each passed the
// one before it in the sum, Bytes counts every block array once,
// whichever snapshots in between were dropped.
func (s *Snapshot) Bytes(prev *Snapshot) SnapshotBytes {
	n := SnapshotBytes{
		Memory: 4*len(s.pages) + 8*len(s.mem),
		HTM:    s.htm.Bytes(),
		Other:  8 * len(s.output),
	}
	for i, p := range s.pages {
		was, pristine := prev.page(p), s.prog.page(p)
		for j, b := range s.pageAt(i) {
			if b != blockAt(pristine[:], j) && (was == nil || b != was[j]) {
				n.Memory += 8 * blockWords
			}
		}
	}
	for i := range s.cores {
		c, pc := &s.cores[i], &noCore
		if prev != nil {
			pc = &prev.cores[i]
		}
		n.Other += 8 * len(c.elided)
		n.Tags += 8 * tagBlocks
		for j, b := range c.tags {
			if b != pc.tags[j] {
				n.Tags += 8 * blockWords
			}
		}
		n.Registers += fileBytes(c.frames, pc.frames) + fileBytes(c.txFrames, pc.txFrames, pc.frames, c.frames)
	}
	return n
}

// fileBytes estimates the memory of the frames' register-file blocks,
// counting a block array only if none of held has it at the same depth
// and index.
func fileBytes(frames []frameSnap, held ...[]frameSnap) int {
	n := 0
	for d := range frames {
		for b, blk := range frames[d].file {
			n += 8
			if !heldAt(held, d, b, blk) {
				n += 8 * fileBlockRegs
			}
		}
	}
	return n
}

// heldAt reports whether one of the frame stacks has blk as block b of
// its frame at depth d.
func heldAt(stacks [][]frameSnap, d, b int, blk *fileBlock) bool {
	for _, fs := range stacks {
		if d < len(fs) && b < len(fs[d].file) && fs[d].file[b] == blk {
			return true
		}
	}
	return false
}

// Snapshot captures the machine. Take it before Start, or after
// RunUntil paused; armed fault plans, tracers and rings are not part
// of it.
func (m *Machine) Snapshot() *Snapshot {
	prev := m.lastSnap
	s := &Snapshot{
		mod: m.Mod, ncores: len(m.cores), memWords: m.memWords, prog: m.prog,
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
	s.mem = make([]*block, len(s.pages)*pageBlocks)
	for i, p := range s.pages {
		was, pristine, blocks := prev.page(p), m.prog.page(p), s.pageAt(i)
		for j := range blocks {
			old := blockAt(pristine[:], j)
			if was != nil {
				old = was[j]
			}
			blocks[j] = keep(old, blockAt(m.mem[p][:], j))
		}
	}
	copyLocks(s.locks, m.locks)
	copyBarriers(s.barriers, m.barriers)
	for i, c := range m.cores {
		sc, pc := &s.cores[i], &noCore
		if prev != nil {
			pc = &prev.cores[i]
		}
		*sc = coreSnap{coreState: c.coreState, sched: c.sched, elided: slices.Clone(c.elided)}
		for j := range sc.tags {
			sc.tags[j] = keep(pc.tags[j], blockAt(c.l1tags[:], j))
		}
		sc.frames = snapFrames(c.frames, pc.frames, nil)
		if c.snapshot != nil {
			sc.txFrames = snapFrames(c.snapshot.frames, pc.txFrames, sc.frames)
		}
	}
	m.lastSnap = s
	return s
}

// keep returns old if it holds the words of cur, else a copy of cur.
func keep(old, cur *block) *block {
	if old != nil && *old == *cur {
		return old
	}
	b := new(block)
	*b = *cur
	return b
}

// snapFrames captures a frame stack. Each block is the same block of
// the frame at the same depth of prev, or else of live, if that frame
// runs the same function and the block holds the same words; else it is
// a copy.
func snapFrames(frames []frame, prev, live []frameSnap) []frameSnap {
	out := make([]frameSnap, len(frames))
	for d := range frames {
		fr, fs := &frames[d], &out[d]
		fs.frame, fs.nregs = *fr, len(fr.regs)
		fs.regs, fs.ready = nil, nil
		fs.file = make([]*fileBlock, 2*fileBlocks(fs.nregs))
		pv, lv := frameOf(prev, d, fr.fn), frameOf(live, d, fr.fn)
		for b := range fs.file {
			fs.file[b] = keepFile(fr.fileWords(b), b, pv, lv)
		}
	}
	return out
}

// frameOf returns the frame at depth d of a captured stack if it runs
// fn, else nil.
func frameOf(stack []frameSnap, d int, fn *ir.Func) *frameSnap {
	if d < len(stack) && stack[d].fn == fn {
		return &stack[d]
	}
	return nil
}

// keepFile returns block b of the first of the frames x, y (either may
// be nil) whose block b holds words, else a copy of words.
func keepFile(words []uint64, b int, x, y *frameSnap) *fileBlock {
	for _, fs := range [2]*frameSnap{x, y} {
		if fs != nil && slices.Equal(fs.file[b][:len(words)], words) {
			return fs.file[b]
		}
	}
	blk := new(fileBlock)
	copy(blk[:], words)
	return blk
}

// Restore puts the machine into the snapshot's state, whatever it ran
// since — including a crashed run that stored to wild addresses: a
// restored machine continues bit-identically to the one the snapshot
// was taken from. Like Reset it disarms fault plans and keeps tracers
// and rings. The snapshot must come from a machine of the same module,
// core count and memory size; it may have taken stepwise or run-ahead
// turns.
func (m *Machine) Restore(s *Snapshot) {
	m.mustFit(s, "Restore")
	// The snapshot's pages get its contents and become the dirty set; the
	// machine's other dirty pages become pristine.
	for _, p := range m.dirty {
		m.isDirty[p] = false
	}
	for i, p := range s.pages {
		m.own(p)
		for j, b := range s.pageAt(i) {
			*blockAt(m.mem[p][:], j) = *b
		}
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
		c.sched = sc.sched
		for j, b := range sc.tags {
			*blockAt(c.l1tags[:], j) = *b
		}
		c.frames = c.loadFrames(c.frames, sc.frames)
		c.snapshot = nil
		if sc.txFrames != nil {
			c.txbuf.frames = c.loadFrames(c.txbuf.frames, sc.txFrames)
			c.snapshot = &c.txbuf
		}
		c.elided = append(c.elided[:0], sc.elided...)
	}
	copyLocks(m.locks, s.locks)
	copyBarriers(m.barriers, s.barriers)
	m.heapNext = s.heapNext
	m.output = append(m.output[:0], s.output...)
	m.nthreads = s.nthreads
	m.status = s.status
	m.stats = s.stats
	m.faults, m.pending = nil, 0
	m.lastSnap = s
	m.HTM.Restore(s.htm)
}

// loadFrames makes dst, one of the core's own frame stacks, the
// captured frames src.
func (c *core) loadFrames(dst []frame, src []frameSnap) []frame {
	c.release(dst)
	dst = dst[:0]
	for i := range src {
		fs := &src[i]
		fr, buf := fs.frame, c.grab(fs.nregs)
		fr.regs, fr.ready = buf[:fs.nregs], buf[fs.nregs:]
		for b, blk := range fs.file {
			copy(fr.fileWords(b), blk[:])
		}
		dst = append(dst, fr)
	}
	return dst
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
		if c.sched != sc.sched || !framesEqual(c.frames, sc.frames) || c.coreState != sc.coreState ||
			!slices.Equal(c.elided, sc.elided) {
			return false
		}
		if (c.snapshot != nil) != (sc.txFrames != nil) ||
			c.snapshot != nil && !framesEqual(c.snapshot.frames, sc.txFrames) {
			return false
		}
		for j, b := range sc.tags {
			if *blockAt(c.l1tags[:], j) != *b {
				return false
			}
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
	for i, p := range s.pages {
		for j, b := range s.pageAt(i) {
			if *blockAt(m.mem[p][:], j) != *b {
				return false
			}
		}
	}
	for _, p := range m.dirty {
		if _, held := slices.BinarySearch(s.pages, p); !held && !m.isPristine(p) {
			return false
		}
	}
	return true
}

// pageAt returns the blocks of the snapshot's i-th dirty page.
func (s *Snapshot) pageAt(i int) []*block {
	return s.mem[i*pageBlocks : (i+1)*pageBlocks]
}

// page returns the snapshot's blocks of page p: nil if p was pristine,
// or if there is no snapshot.
func (s *Snapshot) page(p int32) []*block {
	if s == nil {
		return nil
	}
	if i, ok := slices.BinarySearch(s.pages, p); ok {
		return s.pageAt(i)
	}
	return nil
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
	case s.memWords != m.memWords:
		panic(fmt.Sprintf("vm: %s of a snapshot with %d memory words on a machine with %d", op, s.memWords, m.memWords))
	}
}

func framesEqual(a []frame, b []frameSnap) bool {
	if len(a) != len(b) {
		return false
	}
	// Innermost frame first: it is where a diverged run differs.
	for i := len(a) - 1; i >= 0; i-- {
		x, y := &a[i], &b[i]
		if x.fn != y.fn || x.block != y.block || x.pc != y.pc || x.prevBlk != y.prevBlk ||
			x.base != y.base || x.retReg != y.retReg || x.retReady != y.retReady || len(x.regs) != y.nregs {
			return false
		}
		for k, blk := range y.file {
			if w := x.fileWords(k); !slices.Equal(w, blk[:len(w)]) {
				return false
			}
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
