package vm

import (
	"fmt"
	"strings"
	"testing"

	harden "repro/internal/core"
	"repro/internal/ir"
)

// TestRunAheadMatchesStepwise is the differential of the scheduler:
// a machine that gives a core run-ahead turns (NewFromProgram) passes
// through exactly the states of one that re-picks after every
// instruction (New). Both run the snapshot program — contended locks,
// barriers, a call and split transactions — and a variant whose lock
// loop is eight times longer, hardened three ways, at 2, 4 and 8
// threads. They pause at the same instruction counts; at every pause
// the run-ahead machine must Equal a snapshot of the stepwise one, and
// the finished runs must agree on status, output, statistics and HTM
// statistics.
func TestRunAheadMatchesStepwise(t *testing.T) {
	progs := map[string]string{
		"snap":      snapProg,
		"contended": strings.Replace(snapProg, "cmp lt v8, #8", "cmp lt v8, #64", 1),
	}
	for _, mode := range []harden.Mode{harden.ModeILR, harden.ModeHAFT, harden.ModeTMR} {
		for name, src := range progs {
			mod, err := harden.Harden(ir.MustParse(src), harden.Config{Mode: mode, Opt: harden.OptFaultProp, TxThreshold: 120})
			if err != nil {
				t.Fatalf("harden %s/%v: %v", name, mode, err)
			}
			prog := Compile(mod)
			for _, threads := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%v/%dT", name, mode, threads), func(t *testing.T) {
					t.Parallel()
					checkRunAhead(t, New(mod, threads, snapConfig()), NewFromProgram(prog, threads, snapConfig()))
				})
			}
		}
	}
}

// checkRunAhead runs both machines to the end in pauses of a prime
// number of instructions, so that the pauses fall inside turns.
func checkRunAhead(t *testing.T, step, ahead *Machine) {
	t.Helper()
	specs := make([]ThreadSpec, len(step.cores))
	for i := range specs {
		specs[i] = ThreadSpec{Func: "main"}
	}
	step.Start(specs...)
	ahead.Start(specs...)
	const stride = 97
	blocked := false
	for pause := uint64(stride); ; pause += stride {
		ended := step.RunUntil(pause)
		if ahead.RunUntil(pause) != ended {
			t.Fatalf("at pause %d the stepwise run ended %v, the run-ahead one did not", pause, ended)
		}
		if ended {
			break
		}
		if !ahead.Equal(step.Snapshot()) {
			t.Fatalf("the run-ahead machine differs from the stepwise one at pause %d", pause)
		}
		for _, c := range step.cores {
			blocked = blocked || c.state == threadBlocked
		}
	}
	want, got := finalOf(step), finalOf(ahead)
	if got.status != StatusOK {
		t.Fatalf("run-ahead run: %v (%s)", got.status, got.stats.CrashReason)
	}
	if d := got.diff(want); d != "" {
		t.Fatalf("finished runs differ: %s", d)
	}
	if !blocked || ahead.wakes == 0 {
		t.Fatalf("no pause with a blocked thread (%v) or no wake (%d): the program does not exercise the turn rules", blocked, ahead.wakes)
	}
}
