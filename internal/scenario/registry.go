// The default registry: the repository's fault-tolerance coverage,
// declared as data. Each entry replaces a hand-rolled experiment loop
// (fimodels' per-model campaigns, tmrcompare's correctable/residual
// split, chaos-bench's profiles) with a parameterized scenario the
// sharded runner expands, executes, and golden-diffs.
//
// Attribute conventions:
//   smoke   — the fixed-seed CI subset (fast, deterministic, golden-pinned)
//   sweep   — the wide sweep, golden-pinned per commit since fast-forward
//             injection made it a few seconds (testdata/golden_full_sweep.json)
//   gate    — scenarios with a hard pass gate (MaxSDCRuns, corruption invariant)
//   fi/perf/serve, plus mode tags (haft, tmr, ...) for ad-hoc selection

package scenario

import "time"

// defaultOwner/defaultContacts mirror the tast metadata convention:
// regressions page the owning rotation.
var (
	defaultOwner    = "haft-ci"
	defaultContacts = []string{"haft-ci-rotation@repro.invalid"}
)

// DefaultRegistry builds the registry of declared scenarios. It is
// rebuilt per call (scenarios are cheap to validate) so tests can
// mutate their copy freely.
func DefaultRegistry() *Registry {
	r := NewRegistry()

	// The paper's Table 1 axis: outcome distribution of every fault
	// model under full HAFT hardening, on one phoenix and one parsec
	// representative.
	r.MustRegister(&Scenario{
		Name:     "fi/models-haft",
		Desc:     "outcome distribution of all six fault models under haft (Table 1)",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "haft"},
		Timeout:  2 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"linearreg", "canneal"},
			Modes:     []string{"haft"},
			Models:    []string{"reg", "mem", "branch", "addr", "skip", "double"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// The hardening ladder: the same faults against native, ilr, haft
	// and tmr builds — the cross-mode comparison §4.2 frames.
	r.MustRegister(&Scenario{
		Name:     "fi/mode-ladder",
		Desc:     "reg/branch faults up the hardening ladder (native -> ilr -> haft -> tmr)",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "smoke"},
		Timeout:  2 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"histogram"},
			Modes:     []string{"native", "ilr", "haft", "tmr"},
			Models:    []string{"reg", "branch"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// Engine differential: identical campaigns dispatched stepwise and
	// fused must agree (the equivalence contract, checked per fault
	// model). Campaigns run fiThreads = 2 threads, where both axis
	// values take the same one-instruction-per-turn loop, so this pins
	// that a stepwise (vm.New) worker matches a shared-program one.
	r.MustRegister(&Scenario{
		Name:     "fi/engine-differential",
		Desc:     "identical campaigns on stepwise vs fused dispatch (equivalence contract)",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "engines", "smoke"},
		Timeout:  2 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"linearreg"},
			Modes:     []string{"ilr", "haft", "tmr"},
			Models:    []string{"reg", "skip"},
			Engines:   []string{"step", "compiled"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// Flow-restricted injection: master vs shadow (vs shadow2 under
	// tmr) fault placement; expansion prunes shadow2 outside tmr via
	// the shared mode->flow table.
	r.MustRegister(&Scenario{
		Name:     "fi/flows",
		Desc:     "flow-restricted reg faults (master/shadow/shadow2 per mode validity)",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "flows"},
		Timeout:  2 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"linearreg"},
			Modes:     []string{"ilr", "haft", "tmr"},
			Models:    []string{"reg"},
			Flows:     []string{"master", "shadow", "shadow2"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// TMR's hard guarantee: single faults in majority-vote-correctable
	// models must never surface as SDC. MaxSDCRuns 0 turns any SDC into
	// a run failure, on both engines.
	r.MustRegister(&Scenario{
		Name:     "tmr/correctable-zero-sdc",
		Desc:     "correctable single faults under tmr must yield zero SDC",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "tmr", "gate", "smoke"},
		Timeout:  2 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"linearreg"},
			Modes:     []string{"tmr"},
			Models:    []string{"reg", "branch", "addr", "skip"},
			Engines:   []string{"compiled", "step"},
		},
		Kind:       KindFI,
		MaxSDCRuns: 0,
	})

	// The residual: fault models outside tmr's correction envelope
	// (memory, double faults) — recorded and pinned, not gated.
	r.MustRegister(&Scenario{
		Name:     "tmr/residual",
		Desc:     "uncorrectable models (mem, double) under tmr and haft",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "tmr"},
		Timeout:  2 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"linearreg", "canneal"},
			Modes:     []string{"tmr", "haft"},
			Models:    []string{"mem", "double"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// The wide sweep: every fault model x hardened mode x engine over a
	// workload spread. Too slow for the smoke subset's budget, so CI runs
	// and golden-diffs it as its own step.
	r.MustRegister(&Scenario{
		Name:     "fi/full-sweep",
		Desc:     "all models x hardened modes x engines over a workload spread",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"fi", "sweep"},
		Timeout:  3 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"histogram", "linearreg", "stringmatch", "blackscholes"},
			Modes:     []string{"ilr", "haft", "tmr"},
			Models:    []string{"reg", "mem", "branch", "addr", "skip", "double"},
			Engines:   []string{"compiled", "step"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// Fault-free health: every mode (including native and tx) must run
	// to StatusOK on both engines; the records pin deterministic
	// instruction/cycle counts per hardened build.
	r.MustRegister(&Scenario{
		Name:     "perf/health",
		Desc:     "fault-free runs of every mode on both engines (status + pinned RunStats)",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"perf"},
		Timeout:  1 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"histogram", "linearreg", "canneal", "blackscholes"},
			Modes:     []string{"native", "ilr", "tx", "haft", "tmr"},
			Engines:   []string{"compiled", "step"},
		},
		Kind:       KindFI,
		MaxSDCRuns: -1,
	})

	// The serving layer under chaos: YCSB-A traffic against the
	// hardened KV tier with process kills, hangs and SEU storms; the
	// zero-delivered-corruptions invariant is the gate.
	r.MustRegister(&Scenario{
		Name:     "serve/chaos",
		Desc:     "hardened kv serving under chaos profiles; zero corrupted replies",
		Owner:    defaultOwner,
		Contacts: defaultContacts,
		Attrs:    []string{"serve", "chaos", "gate"},
		Timeout:  3 * time.Minute,
		Matrix: Matrix{
			Workloads: []string{"kvserve"},
			Modes:     []string{"haft", "tmr"},
			Chaos:     []string{"light", "heavy"},
		},
		Kind:       KindServe,
		MaxSDCRuns: -1,
	})

	return r
}
