package vm

import (
	"fmt"

	"repro/internal/htm"
	"repro/internal/ir"
	"repro/internal/obs"
)

// execIntrinsicID implements the runtime helper functions: the HAFT
// transactification helpers of §3.2, the ILR detection point, lock and
// lock-elision wrappers (§3.3), and the unprotected "external library"
// surface (allocation, raw I/O, threading queries, barriers). Dispatch
// is on the dense intrinsic id bound at compile time.
func (m *Machine) execIntrinsicID(c *core, fr *frame, in *ir.Instr, id intrID, vals []uint64, opsReady, lat uint64) {
	advance := func() {
		fr.instr++
		m.afterInstr(c)
	}
	setRes := func(v uint64) {
		if in.Res != ir.NoValue {
			fr.setReg(in.Res, v, c.sched.Now())
		}
	}

	switch id {
	case intrTxBegin:
		c.sched.Stall(lat)
		if m.HTM.InTx(c.id) {
			// Defensive flat nesting: commit the active transaction.
			if !m.commitTx(c) {
				return // rolled back; re-executes from snapshot
			}
		}
		c.takeSnapshot()
		c.attempts = 0
		c.counter = 0
		m.HTM.Begin(c.id, c.sched.Now())
		c.txEntered = c.sched.Now()
		fr.instr++

	case intrTxEnd:
		c.sched.Stall(lat)
		if m.HTM.InTx(c.id) {
			if !m.commitTx(c) {
				return
			}
		}
		c.snapshot = nil
		fr.instr++

	case intrTxCondSplit:
		threshold := int64(vals[0])
		if len(vals) >= 2 {
			// Folded counter increment (check-reduction suite): the
			// loop-latch tx.counter_inc was absorbed into the header's
			// conditional split.
			c.counter += int64(vals[1])
		}
		if m.Cfg.AdaptiveThreshold {
			if c.dynLimit == 0 {
				c.dynLimit, c.dynBase = threshold, threshold
			}
			threshold = c.dynLimit
		}
		c.sched.Issue(lat, opsReady)
		if c.counter < threshold {
			advance()
			return
		}
		if m.HTM.InTx(c.id) {
			if !m.commitTx(c) {
				return
			}
		}
		c.sched.Stall(intrinsicLat[intrTxBegin])
		c.takeSnapshot()
		c.attempts = 0
		c.counter = 0
		m.HTM.Begin(c.id, c.sched.Now())
		c.txEntered = c.sched.Now()
		fr.instr++

	case intrTxCounterInc:
		c.sched.Issue(lat, opsReady)
		c.counter += int64(vals[0])
		advance()
		return

	case intrTxCheck:
		// Relaxed ILR check (§3.3): compare master/shadow pairs without
		// branching. Inside a transaction a mismatch only marks the
		// core diverged — the reaction is deferred to the next commit
		// point, where the transaction aborts before any buffered write
		// becomes visible. Outside a transaction (fallback runs, plain
		// ILR misuse) the check degrades to an eager fail-stop.
		c.sched.Issue(lat, opsReady)
		mismatch := false
		for i := 0; i+1 < len(vals); i += 2 {
			if vals[i] != vals[i+1] {
				mismatch = true
				if m.obsRing != nil {
					m.obsRing.Emit(obs.Event{
						Kind: obs.KindCheckDiverge, Actor: m.obsBase + int32(c.id),
						Time: c.sched.Now(), A: vals[i], B: vals[i+1],
						Label: fr.fn.Name + "/" + fr.fn.Blocks[fr.block].Name,
					})
				}
				break
			}
		}
		if mismatch {
			if m.HTM.InTx(c.id) && !m.Cfg.DisableRecovery {
				c.diverged = true
			} else {
				m.status = StatusILRDetected
				return
			}
		}
		advance()
		return

	case intrTmrVote:
		// TMR majority vote (the Elzar scheme): each (master, s1, s2)
		// replica triple is corrected in place to its 2-of-3 majority —
		// no abort, no retry, no transaction needed. Only a three-way
		// disagreement (outside the single-event-upset model) fails.
		c.sched.Issue(lat, opsReady)
		if !m.tmrVote(c, fr, in, vals) {
			return
		}
		advance()
		return

	case intrILRFail:
		// A failed ILR check: xabort inside a transaction, program
		// termination outside (Figure 1c vs 1b).
		if m.obsRing != nil {
			m.obsRing.Emit(obs.Event{
				Kind: obs.KindDetect, Actor: m.obsBase + int32(c.id), Time: c.sched.Now(),
				Label: fr.fn.Name + "/" + fr.fn.Blocks[fr.block].Name,
			})
		}
		if m.HTM.InTx(c.id) && !m.Cfg.DisableRecovery {
			m.stats.ExplicitAborts++
			c.hadExplicit = true
			m.HTM.Abort(c.id, c.sched.Now(), htm.CauseExplicit)
			m.recoverAfterAbort(c)
			return
		}
		m.status = StatusILRDetected
		return

	case intrHaftCrash:
		m.status = StatusILRDetected
		return

	case intrLockAcquire:
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		m.lockAcquire(c, vals[0], lat, advance)
		return

	case intrLockRelease:
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		c.sched.Stall(lat)
		m.lockRelease(c, vals[0])
		if m.status != StatusOK {
			return
		}
		fr.instr++

	case intrLockAcquireElide:
		if !m.HTM.InTx(c.id) {
			// No active transaction: fall back to the real lock.
			m.lockAcquire(c, vals[0], intrinsicLat[intrLockAcquire], advance)
			return
		}
		c.sched.Issue(lat, opsReady)
		// Speculative elision: subscribe to the lock word so a real
		// acquisition by another thread conflicts with us.
		m.HTM.Read(c.id, vals[0], c.sched.Now())
		if lk := m.locks[vals[0]]; lk != nil && lk.held {
			// Lock actually held: cannot run the critical section
			// speculatively alongside a lock holder.
			m.HTM.Abort(c.id, c.sched.Now(), htm.CauseConflict)
			m.recoverAfterAbort(c)
			return
		}
		c.elided = append(c.elided, vals[0])
		fr.instr++

	case intrLockReleaseElide:
		if !m.HTM.InTx(c.id) {
			c.sched.Stall(intrinsicLat[intrLockRelease])
			m.lockRelease(c, vals[0])
			if m.status != StatusOK {
				return
			}
			fr.instr++
			m.afterInstr(c)
			return
		}
		c.sched.Issue(lat, opsReady)
		if i := indexOf(c.elided, vals[0]); i >= 0 {
			c.elided = append(c.elided[:i], c.elided[i+1:]...)
			fr.instr++
		} else {
			// Lock was acquired for real (fallback path) but a new
			// transaction has begun since: releasing a real lock is an
			// external operation, unfriendly to the transaction.
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}

	case intrMalloc:
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		c.sched.Stall(lat)
		setRes(m.Malloc(vals[0]))
		fr.instr++

	case intrFree:
		c.sched.Issue(lat, opsReady)
		fr.instr++

	case intrThreadID:
		c.sched.Issue(lat, opsReady)
		setRes(uint64(c.id))
		fr.instr++

	case intrThreadCount:
		c.sched.Issue(lat, opsReady)
		setRes(uint64(m.nthreads))
		fr.instr++

	case intrBarrierWait:
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		m.barrierWait(c, vals[0], vals[1], lat)
		return

	case intrSysRead, intrSysWrite:
		if m.HTM.InTx(c.id) {
			m.HTM.Unfriendly(c.id)
			m.checkDoom(c)
			return
		}
		c.sched.Stall(lat)
		setRes(0)
		fr.instr++

	default:
		m.crash("unknown intrinsic " + in.Callee)
		return
	}
	m.afterInstr(c)
}

// tmrVote applies 2-of-3 majority correction to each (master, s1, s2)
// register triple of a tmr.vote call. A diverging replica is corrected
// by writing the majority value back into all three registers — via
// setReg, not commitReg, so corrections never perturb the
// fault-injection populations or the register-write trace — and the
// corrected-fault counter is bumped. Reports false when a triple had
// three distinct values: the majority is undefined, which is outside
// the single-fault model, and the run stops with StatusILRDetected.
// tmr.vote calls and the fused triad-vote superinstruction land here
// on divergence.
func (m *Machine) tmrVote(c *core, fr *frame, in *ir.Instr, vals []uint64) bool {
	now := c.sched.Now()
	for i := 0; i+2 < len(vals); i += 3 {
		a, b, d := vals[i], vals[i+1], vals[i+2]
		if a == b && b == d {
			continue
		}
		var maj, outlier uint64
		switch {
		case a == b:
			maj, outlier = a, d
		case a == d:
			maj, outlier = a, b
		case b == d:
			maj, outlier = b, a
		default:
			if m.obsRing != nil {
				m.obsRing.Emit(obs.Event{
					Kind: obs.KindDetect, Actor: m.obsBase + int32(c.id), Time: now,
					A: a, B: b,
					Label: fr.fn.Name + "/" + fr.fn.Blocks[fr.block].Name,
				})
			}
			m.status = StatusILRDetected
			return false
		}
		fr.setReg(in.Args[i].Reg, maj, now)
		fr.setReg(in.Args[i+1].Reg, maj, now)
		fr.setReg(in.Args[i+2].Reg, maj, now)
		m.stats.CorrectedFaults++
		if m.obsRing != nil {
			m.obsRing.Emit(obs.Event{
				Kind: obs.KindVoteCorrect, Actor: m.obsBase + int32(c.id), Time: now,
				A: maj, B: outlier,
				Label: fr.fn.Name + "/" + fr.fn.Blocks[fr.block].Name,
			})
		}
	}
	return true
}

// commitTx attempts to commit the active transaction. On failure the
// transaction has been rolled back and the retry/fallback policy
// applied; the caller must return immediately (control flow was
// restored to the snapshot). Reports whether the commit succeeded.
func (m *Machine) commitTx(c *core) bool {
	if c.diverged {
		// A relaxed check recorded a master/shadow divergence: abort
		// instead of committing, exactly as an eager ilr.fail would
		// have, just at the transaction boundary.
		if m.Cfg.DisableRecovery {
			m.status = StatusILRDetected
			return false
		}
		m.stats.ExplicitAborts++
		c.hadExplicit = true
		m.HTM.Abort(c.id, c.sched.Now(), htm.CauseExplicit)
		m.recoverAfterAbort(c)
		return false
	}
	cause, ok := m.HTM.Commit(c.id, c.sched.Now(), func(addr, val uint64) {
		m.store(addr/8, val)
	})
	if ok {
		if c.hadExplicit {
			m.stats.Recovered++
			c.hadExplicit = false
		}
		c.elided = c.elided[:0]
		if m.Cfg.AdaptiveThreshold && c.dynLimit > 0 {
			c.commitStreak++
			if c.commitStreak >= 16 {
				c.commitStreak = 0
				grown := c.dynLimit + c.dynLimit/4
				if max := c.dynBase * 4; grown > max {
					grown = max
				}
				c.dynLimit = grown
			}
		}
		return true
	}
	_ = cause
	m.recoverAfterAbort(c)
	return false
}

// recoverAfterAbort restores the snapshot and either retries the
// transaction or enters the non-transactional fallback. The HTM-side
// abort has already happened.
func (m *Machine) recoverAfterAbort(c *core) {
	if c.snapshot == nil {
		m.crash("transaction abort without snapshot")
		return
	}
	c.restoreSnapshot()
	c.elided = c.elided[:0]
	c.diverged = false
	c.sched.Stall(intrinsicLat[intrTxBegin])
	if m.Cfg.AdaptiveThreshold && c.dynLimit > 0 {
		c.commitStreak = 0
		if c.dynLimit > 200 {
			c.dynLimit /= 2
		} else {
			c.dynLimit = 100
		}
	}
	c.attempts++
	if c.attempts <= m.Cfg.MaxRetries {
		if m.obsRing != nil {
			m.obsRing.Emit(obs.Event{
				Kind: obs.KindRetry, Actor: m.obsBase + int32(c.id), Time: c.sched.Now(),
				A: uint64(c.attempts), Label: "tx",
			})
		}
		m.HTM.Begin(c.id, c.sched.Now())
		c.txEntered = c.sched.Now()
		return
	}
	// Retry budget exhausted: execute non-transactionally until the
	// next transaction begin (§3).
	m.HTM.RecordFallback()
	if m.obsRing != nil {
		m.obsRing.Emit(obs.Event{
			Kind: obs.KindRetry, Actor: m.obsBase + int32(c.id), Time: c.sched.Now(),
			A: uint64(c.attempts), Label: "fallback",
		})
	}
}

// lockAcquire implements the blocking mutex acquire.
func (m *Machine) lockAcquire(c *core, addr uint64, lat uint64, advance func()) {
	if addr == 0 {
		m.crash("lock.acquire on null address")
		return
	}
	if c.grantLock == addr {
		// We were granted the lock by the releaser while blocked.
		c.grantLock = 0
		c.sched.Stall(lat)
		advance()
		return
	}
	lk := m.locks[addr]
	if lk == nil {
		lk = &lockState{}
		m.locks[addr] = lk
	}
	if !lk.held {
		lk.held = true
		lk.owner = c.id
		c.sched.Stall(lat)
		advance()
		return
	}
	if lk.owner == c.id {
		m.crash("recursive lock.acquire")
		return
	}
	lk.waiters = append(lk.waiters, c.id)
	c.state = threadBlocked
	c.waitLock = addr
}

// lockRelease implements the mutex release, handing the lock to the
// first waiter if any.
func (m *Machine) lockRelease(c *core, addr uint64) {
	lk := m.locks[addr]
	if lk == nil || !lk.held || lk.owner != c.id {
		m.crash(fmt.Sprintf("release of lock %#x not held by thread %d", addr, c.id))
		return
	}
	if len(lk.waiters) == 0 {
		lk.held = false
		return
	}
	next := lk.waiters[0]
	lk.waiters = lk.waiters[1:]
	lk.owner = next
	w := m.cores[next]
	w.state = threadRunnable
	w.waitLock = 0
	w.grantLock = addr
	w.sched.AdvanceTo(c.sched.Now())
}

// barrierWait implements an n-thread barrier at the given address.
func (m *Machine) barrierWait(c *core, addr, n uint64, lat uint64) {
	if c.grantBarrier == addr {
		c.grantBarrier = 0
		c.sched.Stall(lat)
		c.frames[len(c.frames)-1].instr++
		m.afterInstr(c)
		return
	}
	if n == 0 || addr == 0 {
		m.crash("barrier.wait with invalid arguments")
		return
	}
	bar := m.barriers[addr]
	if bar == nil {
		bar = &barrierState{need: int(n)}
		m.barriers[addr] = bar
	}
	bar.arrived = append(bar.arrived, c.id)
	if len(bar.arrived) < bar.need {
		c.state = threadBlocked
		c.waitBarrier = addr
		return
	}
	// Last arriver: release everyone at the current time.
	now := c.sched.Now()
	for _, id := range bar.arrived {
		w := m.cores[id]
		if id != c.id {
			w.state = threadRunnable
			w.waitBarrier = 0
			w.grantBarrier = addr
			w.sched.AdvanceTo(now)
		}
	}
	bar.arrived = bar.arrived[:0]
	c.sched.Stall(lat)
	c.frames[len(c.frames)-1].instr++
	m.afterInstr(c)
}

func indexOf(s []uint64, v uint64) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
