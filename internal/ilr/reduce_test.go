package ilr

// Unit tests for the check-reduction passes, each on a hand-written IR
// fixture shaped like the hardening pipeline's output. The adversarial
// counterparts — proving the *differential safety net* would catch an
// unsound variant of each pass — live in internal/core/adversarial_test.go.

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func txChecks(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if isTxCheck(&b.Instrs[i]) {
				out = append(out, &b.Instrs[i])
			}
		}
	}
	return out
}

func TestCopyPropForwardsPlainMovs(t *testing.T) {
	m := mustParse(t, `
func f(1) {
entry:
  v1 = mov v0
  v2 = add v1, #1
  ret v2
}
`)
	st := copyProp(m.Func("f"))
	if st.CopiesPropagated != 1 {
		t.Fatalf("CopiesPropagated = %d, want 1\n%s", st.CopiesPropagated, m.Func("f"))
	}
	add := &m.Func("f").Blocks[0].Instrs[1]
	if add.Args[0].Reg != 0 {
		t.Errorf("add operand not forwarded to v0:\n%s", m.Func("f"))
	}
}

func TestCopyPropNeverLooksThroughReplicaMovs(t *testing.T) {
	// v1 is the master-to-shadow replica seed; forwarding its use would
	// make the check compare v0 with itself and hide master corruption.
	m := mustParse(t, `
func f(1) {
entry:
  v1 = mov v0 !replica,shadow
  v2 = cmp ne v0, v1 !check
  br v2, det, cont !detect
det:
  call @ilr.fail !detect
  trap !detect
cont:
  ret v0
}
`)
	st := copyProp(m.Func("f"))
	if st.CopiesPropagated != 0 {
		t.Fatalf("propagated through a replica mov:\n%s", m.Func("f"))
	}
	cmp := &m.Func("f").Blocks[0].Instrs[1]
	if cmp.Args[1].Reg != 1 {
		t.Errorf("check operand rewritten to master register:\n%s", m.Func("f"))
	}
}

func TestCopyPropChainsResolveToRoot(t *testing.T) {
	m := mustParse(t, `
func f(1) {
entry:
  v1 = mov v0
  v2 = mov v1
  v3 = add v2, v1
  ret v3
}
`)
	st := copyProp(m.Func("f"))
	// Three uses rewrite: v1 inside the second mov, and both add operands.
	if st.CopiesPropagated != 3 {
		t.Fatalf("CopiesPropagated = %d, want 3", st.CopiesPropagated)
	}
	add := &m.Func("f").Blocks[0].Instrs[2]
	if add.Args[0].Reg != 0 || add.Args[1].Reg != 0 {
		t.Errorf("chain not resolved to v0:\n%s", m.Func("f"))
	}
}

// eagerPair is a fixture with two back-to-back eager checks of the
// same (v0, v1) pair with no intervening definition of either.
const eagerPair = `
func f(2) {
entry:
  v2 = cmp ne v0, v1 !check
  br v2, det, mid !detect
mid:
  v3 = cmp ne v0, v1 !check
  br v3, det, cont !detect
cont:
  ret v0
det:
  call @ilr.fail !detect
  trap !detect
}
`

func TestRCERemovesRecheckedPair(t *testing.T) {
	m := mustParse(t, eagerPair)
	st := elimRedundantChecks(m.Func("f"))
	if st.ChecksRemoved != 1 {
		t.Fatalf("ChecksRemoved = %d, want 1\n%s", st.ChecksRemoved, m.Func("f"))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify after RCE: %v\n%s", err, m.Func("f"))
	}
	// The first check must survive; the second becomes a plain jump.
	if n := countOp(m.Func("f"), ir.OpCmp); n != 1 {
		t.Errorf("cmp count = %d, want 1 (first check must survive)\n%s", n, m.Func("f"))
	}
}

func TestRCEDefinitionKillsAvailability(t *testing.T) {
	// v0 is redefined (as v3's role: a new value flows into the second
	// check via v3) — here the second check uses a *fresh* register
	// defined from v0, so its pair differs and nothing may be removed.
	m := mustParse(t, `
func f(2) {
entry:
  v2 = cmp ne v0, v1 !check
  br v2, det, mid !detect
mid:
  v3 = add v0, #1
  v4 = add v1, #1 !shadow
  v5 = cmp ne v3, v4 !check
  br v5, det, cont !detect
cont:
  ret v3
det:
  call @ilr.fail !detect
  trap !detect
}
`)
	st := elimRedundantChecks(m.Func("f"))
	if st.ChecksRemoved != 0 {
		t.Fatalf("removed a check of a freshly defined pair:\n%s", m.Func("f"))
	}
}

func TestRCELoopBackEdgeKill(t *testing.T) {
	// A check inside a loop whose registers are redefined each
	// iteration via phis: the back edge carries fresh definitions, so
	// the in-loop check is NOT redundant even though a syntactically
	// identical check dominates it from outside the loop... the phi
	// defines a new pair each round, and the pass must keep the check.
	m := mustParse(t, `
func f(2) {
entry:
  v2 = cmp ne v0, v1 !check
  br v2, det, head !detect
head:
  v3 = phi v0 [entry], v5 [body]
  v4 = phi v1 [entry], v6 [body]
  v7 = cmp ne v3, v4 !check
  br v7, det, body !detect
body:
  v5 = add v3, #1
  v6 = add v4, #1 !shadow
  v8 = cmp lt v5, #10
  br v8, head, cont
cont:
  ret v3
det:
  call @ilr.fail !detect
  trap !detect
}
`)
	st := elimRedundantChecks(m.Func("f"))
	if st.ChecksRemoved != 0 {
		t.Fatalf("removed a loop check whose pair is redefined by phis:\n%s", m.Func("f"))
	}
}

func TestRCERelaxedPairDroppedUnderEagerCheck(t *testing.T) {
	m := mustParse(t, `
func f(2) {
entry:
  v2 = cmp ne v0, v1 !check
  br v2, det, mid !detect
mid:
  call @tx.check v0, v1 !check,txhelper
  ret v0
det:
  call @ilr.fail !detect
  trap !detect
}
`)
	f := m.Func("f")
	st := elimRedundantChecks(f)
	if st.PairsRemoved != 1 {
		t.Fatalf("PairsRemoved = %d, want 1\n%s", st.PairsRemoved, f)
	}
	if len(txChecks(f)) != 0 {
		t.Errorf("empty tx.check not deleted:\n%s", f)
	}
}

func TestRCEEagerCheckNotRemovedUnderRelaxedOnly(t *testing.T) {
	// A deferred tx.check is too weak to replace an eager
	// externalization guard: the eager check must survive.
	m := mustParse(t, `
func f(2) {
entry:
  call @tx.check v0, v1 !check,txhelper
  jmp mid
mid:
  v2 = cmp ne v0, v1 !check
  br v2, det, cont !detect
cont:
  ret v0
det:
  call @ilr.fail !detect
  trap !detect
}
`)
	st := elimRedundantChecks(m.Func("f"))
	if st.ChecksRemoved != 0 {
		t.Fatalf("eager check removed under merely relaxed availability:\n%s", m.Func("f"))
	}
	if st.PairsRemoved != 0 {
		t.Fatalf("first-seen relaxed pair removed:\n%s", m.Func("f"))
	}
}

func TestRCEMergeRequiresAllPaths(t *testing.T) {
	// The pair is checked on only one of two joining paths: the check
	// after the join must survive (must-availability, not may).
	m := mustParse(t, `
func f(3) {
entry:
  br v2, left, right
left:
  v3 = cmp ne v0, v1 !check
  br v3, det, join !detect
right:
  jmp join
join:
  v4 = cmp ne v0, v1 !check
  br v4, det, cont !detect
cont:
  ret v0
det:
  call @ilr.fail !detect
  trap !detect
}
`)
	st := elimRedundantChecks(m.Func("f"))
	if st.ChecksRemoved != 0 {
		t.Fatalf("check removed though only one join path checks the pair:\n%s", m.Func("f"))
	}
}

func TestCoalesceMergesAdjacentTxChecks(t *testing.T) {
	m := mustParse(t, `
func f(4) {
entry:
  call @tx.check v0, v1 !check,txhelper
  call @tx.check v2, v3 !check,txhelper
  ret v0
}
`)
	f := m.Func("f")
	st := coalesceChecks(f)
	if st.CallsCoalesced != 1 {
		t.Fatalf("CallsCoalesced = %d, want 1\n%s", st.CallsCoalesced, f)
	}
	cs := txChecks(f)
	if len(cs) != 1 || len(cs[0].Args) != 4 {
		t.Fatalf("want one variadic tx.check with 4 args:\n%s", f)
	}
}

func TestCoalesceSinksAcrossPureInstrs(t *testing.T) {
	// The tx.check may sink past the pure adds to meet the second
	// check, then the two merge.
	m := mustParse(t, `
func f(4) {
entry:
  call @tx.check v0, v1 !check,txhelper
  v4 = add v0, #1
  v5 = add v1, #1 !shadow
  call @tx.check v4, v5 !check,txhelper
  ret v4
}
`)
	f := m.Func("f")
	st := coalesceChecks(f)
	if st.ChecksSunk == 0 || st.CallsCoalesced != 1 {
		t.Fatalf("ChecksSunk = %d, CallsCoalesced = %d, want >0, 1\n%s",
			st.ChecksSunk, st.CallsCoalesced, f)
	}
}

func TestCoalesceSinkStopsAtBarriers(t *testing.T) {
	// out externalizes; a commit point (any call but tx.counter_inc)
	// can publish transactional state. The check must stay above both.
	for _, fix := range []struct{ name, body string }{
		{"out", "out v0"},
		{"commit", "call @tx.cond_split #100"},
		{"atomic", "v4 = aload v2"},
	} {
		m := mustParse(t, `
func f(4) {
entry:
  call @tx.check v0, v1 !check,txhelper
  `+fix.body+`
  ret v0
}
`)
		f := m.Func("f")
		coalesceChecks(f)
		if !isTxCheck(&f.Blocks[0].Instrs[0]) {
			t.Errorf("%s: tx.check sunk past an externalization/commit barrier:\n%s", fix.name, f)
		}
	}
}

func TestCoalesceSinksPastCounterInc(t *testing.T) {
	// tx.counter_inc only bumps the size heuristic — it neither commits
	// nor externalizes, so checks may sink past it.
	m := mustParse(t, `
func f(4) {
entry:
  call @tx.check v0, v1 !check,txhelper
  call @tx.counter_inc #7
  call @tx.check v2, v3 !check,txhelper
  ret v0
}
`)
	f := m.Func("f")
	st := coalesceChecks(f)
	if st.ChecksSunk == 0 || st.CallsCoalesced != 1 {
		t.Fatalf("check did not sink past tx.counter_inc (sunk=%d merged=%d):\n%s",
			st.ChecksSunk, st.CallsCoalesced, f)
	}
}

func TestCoalesceOrCombinesEagerChain(t *testing.T) {
	m := mustParse(t, eagerPair)
	f := m.Func("f")
	st := coalesceChecks(f)
	if st.ChecksCoalesced != 1 {
		t.Fatalf("ChecksCoalesced = %d, want 1\n%s", st.ChecksCoalesced, f)
	}
	// One combined branch remains: entry now ends with cmp, cmp, or, br.
	if n := countOp(f, ir.OpOr); n != 1 {
		t.Errorf("or count = %d, want 1\n%s", n, f)
	}
	detects := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpBr && b.Instrs[i].HasFlag(ir.FlagDetect) {
				detects++
			}
		}
	}
	if detects != 1 {
		t.Errorf("detect branches = %d, want 1\n%s", detects, f)
	}
	if !strings.Contains(f.String(), "ilr.fail") {
		t.Errorf("detection block lost:\n%s", f)
	}
}

func TestReduceSkipsUnprotectedFuncs(t *testing.T) {
	m := mustParse(t, `
func f(1) {
entry:
  v1 = mov v0
  v2 = add v1, #1
  ret v2
}
`)
	m.Func("f").Attrs.Unprotected = true
	if st := Reduce(m, ReduceOptions{CopyProp: true, RedundantChecks: true, Coalesce: true}); st.Total() != 0 {
		t.Fatalf("reduced an unprotected function: %+v", st)
	}
}
