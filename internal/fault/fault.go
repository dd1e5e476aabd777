// Package fault implements HAFT's software fault-injection framework
// (§4.2 of the paper): single event upsets are injected uniformly at
// random across the dynamic execution trace of a program, one per run,
// and the outcome of each run is classified per Table 1.
//
// The original framework drives Intel SDE plus GDB scripts; here the
// machine simulator exposes the same hook directly (vm.FaultPlan): the
// k-th dynamic register-writing instruction has one of its output
// registers XORed with a random mask. A preparatory reference run
// records the trace length (the injection population) and the correct
// output.
package fault

import (
	"math/rand"
	"sync"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Outcome classifies one fault-injection run (Table 1).
type Outcome uint8

const (
	// OutcomeHang: the program became unresponsive (budget exhausted).
	OutcomeHang Outcome = iota
	// OutcomeOSDetected: the OS terminated the program (invalid memory
	// access, division by zero, illegal instruction, deadlock).
	OutcomeOSDetected
	// OutcomeILRDetected: ILR detected the fault but TX did not
	// recover; the program fail-stopped.
	OutcomeILRDetected
	// OutcomeHAFTCorrected: ILR detected and TX recovered; output
	// correct.
	OutcomeHAFTCorrected
	// OutcomeMasked: the fault did not affect the output.
	OutcomeMasked
	// OutcomeSDC: silent data corruption in the output.
	OutcomeSDC
	numOutcomes
)

// String returns the Table 1 name of the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeHang:
		return "Hang"
	case OutcomeOSDetected:
		return "OS-detected"
	case OutcomeILRDetected:
		return "ILR-detected"
	case OutcomeHAFTCorrected:
		return "HAFT-corrected"
	case OutcomeMasked:
		return "Masked"
	case OutcomeSDC:
		return "SDC"
	}
	return "outcome?"
}

// Class groups outcomes as in Table 1's right column.
type Class uint8

const (
	// ClassCrashed: the system stopped (Hang, OS-detected,
	// ILR-detected).
	ClassCrashed Class = iota
	// ClassCorrect: output correct (HAFT-corrected, Masked).
	ClassCorrect
	// ClassCorrupted: silent data corruption.
	ClassCorrupted
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassCrashed:
		return "Crashed"
	case ClassCorrect:
		return "Correct"
	case ClassCorrupted:
		return "Corrupted"
	}
	return "class?"
}

// Class returns the outcome's class.
func (o Outcome) Class() Class {
	switch o {
	case OutcomeHang, OutcomeOSDetected, OutcomeILRDetected:
		return ClassCrashed
	case OutcomeHAFTCorrected, OutcomeMasked:
		return ClassCorrect
	}
	return ClassCorrupted
}

// Target describes a program to inject faults into. Every injection is
// an independent run: a campaign builds one machine per worker and
// restores it to a snapshot of the fault-free run before each.
type Target struct {
	Name string
	// Module is the (hardened or native) program.
	Module *ir.Module
	// Threads is the number of cores/threads.
	Threads int
	// VM is the machine configuration.
	VM vm.Config
	// Setup optionally pokes initial data into memory before a run.
	Setup func(*vm.Machine)
	// Specs are the thread entry points.
	Specs []vm.ThreadSpec
	// Interpret makes every worker a vm.New machine, which gives each
	// scheduler turn one instruction instead of letting the scheduled
	// core run ahead while it would be picked again (differential
	// testing; default off). Both produce identical campaigns.
	Interpret bool

	// compileOnce guards the one-time preparation of the module: it is
	// laid out and, unless Interpret is set, compiled once per target.
	// Every worker machine then runs that one immutable module, which is
	// what lets a snapshot of one machine restore into another.
	compileOnce sync.Once
	prog        *vm.Program
}

func (t *Target) newMachine() *vm.Machine {
	t.compileOnce.Do(func() {
		if t.Interpret {
			t.Module.Layout()
		} else {
			t.prog = vm.SharedPrograms.Get(t.Module)
		}
	})
	var mach *vm.Machine
	if t.Interpret {
		mach = vm.New(t.Module, t.Threads, t.VM)
	} else {
		mach = vm.NewFromProgram(t.prog, t.Threads, t.VM)
	}
	if t.Setup != nil {
		t.Setup(mach)
	}
	return mach
}

// SiteStats aggregates outcomes of faults injected at one static
// location ("func/block op"), supporting the per-site vulnerability
// analysis the paper uses to explain Memcached's two lingering SDCs
// (§6.1: both in the reply-shaping functions).
type SiteStats struct {
	Site   string
	Total  int
	Counts [numOutcomes]int
}

// SDCs returns the number of silent corruptions at the site.
func (s *SiteStats) SDCs() int { return s.Counts[OutcomeSDC] }

// Campaign runs n single-fault register-flip injections against the
// target and classifies each outcome, fanning the independent runs
// out across CPU cores — the role the paper's 25-machine cluster
// plays (§5.1). It is RunCampaign with the classic single-model
// configuration, returning that model's aggregate.
func Campaign(t *Target, n int, seed int64) (*ModelResult, error) {
	cr, err := RunCampaign(t, CampaignConfig{
		Models:     []Model{ModelRegister},
		Injections: n,
		Seed:       seed,
		Segments:   1, // plain uniform sampling, as in the paper
	})
	if err != nil {
		return nil, err
	}
	return cr.PerModel[0], nil
}

// randMask returns a random non-zero 64-bit corruption pattern. Half
// the time it is a single bit flip (the dominant physical SEU); the
// rest is a random integer as in the paper's injector.
func randMask(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return 1 << uint(rng.Intn(64))
	}
	for {
		m := rng.Uint64()
		if m != 0 {
			return m
		}
	}
}

// Classify maps a finished machine run onto a Table 1 outcome given
// the reference output.
func Classify(mach *vm.Machine, refOut []uint64) Outcome {
	switch mach.Status() {
	case vm.StatusHung:
		return OutcomeHang
	case vm.StatusCrashed:
		return OutcomeOSDetected
	case vm.StatusILRDetected:
		return OutcomeILRDetected
	}
	got := mach.Output()
	if len(got) != len(refOut) {
		return OutcomeSDC
	}
	for i := range got {
		if got[i] != refOut[i] {
			return OutcomeSDC
		}
	}
	// Output correct with an active correction event: HAFT's abort +
	// re-execution or TMR's in-place majority-vote correction both
	// count as "corrected" (vs merely masked).
	st := mach.Stats()
	if st.ExplicitAborts > 0 || st.CorrectedFaults > 0 {
		return OutcomeHAFTCorrected
	}
	return OutcomeMasked
}

// Outcomes lists all outcomes in Table 1 order.
func Outcomes() []Outcome {
	return []Outcome{OutcomeHang, OutcomeOSDetected, OutcomeILRDetected,
		OutcomeHAFTCorrected, OutcomeMasked, OutcomeSDC}
}
