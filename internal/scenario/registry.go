// The default registry: the repository's fault-tolerance coverage,
// declared as data. Each entry replaces a hand-rolled experiment loop
// (fimodels' per-model campaigns, tmrcompare's correctable/residual
// split) with a parameterized scenario that expands into seeded,
// twin-checked campaigns.
//
// Attribute conventions:
//   smoke   — the fixed-seed CI subset (testdata/golden_smoke.json)
//   sweep   — the wide sweep (testdata/golden_full_sweep.json)
//   gate    — scenarios with a hard MaxSDCRuns gate
//   fi/perf, plus mode tags (haft, tmr, ...) for ad-hoc selection

package scenario

// DefaultRegistry builds the registry of declared scenarios. It is
// rebuilt per call (scenarios are cheap to validate) so tests can
// mutate their copy freely.
func DefaultRegistry() *Registry {
	r := &Registry{}
	for _, s := range []*Scenario{
		// The paper's Table 1 axis: every fault model under full HAFT
		// hardening, on one phoenix and one parsec representative.
		{Name: "fi/models-haft", Desc: "outcome distribution of all six fault models under haft (Table 1)",
			Attrs: []string{"fi", "haft"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"linearreg", "canneal"}, Modes: []string{"haft"},
				Models: []string{"reg", "mem", "branch", "addr", "skip", "double"}}},
		// The hardening ladder: the same faults against native, ilr, haft
		// and tmr builds — the cross-mode comparison §4.2 frames.
		{Name: "fi/mode-ladder", Desc: "reg/branch faults up the hardening ladder (native -> ilr -> haft -> tmr)",
			Attrs: []string{"fi", "smoke"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"histogram"}, Modes: []string{"native", "ilr", "haft", "tmr"},
				Models: []string{"reg", "branch"}}},
		// Every record checks stepwise against run-ahead turns; this one
		// puts all three redundant modes under reg and skip faults into
		// the smoke subset.
		{Name: "fi/engine-differential", Desc: "identical campaigns on stepwise vs run-ahead turns (equivalence contract)",
			Attrs: []string{"fi", "engines", "smoke"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"linearreg"}, Modes: []string{"ilr", "haft", "tmr"},
				Models: []string{"reg", "skip"}}},
		// Flow-restricted injection: master vs shadow (vs shadow2 under
		// tmr); expansion prunes shadow2 outside tmr.
		{Name: "fi/flows", Desc: "flow-restricted reg faults (master/shadow/shadow2 per mode validity)",
			Attrs: []string{"fi", "flows"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"linearreg"}, Modes: []string{"ilr", "haft", "tmr"},
				Models: []string{"reg"}, Flows: []string{"master", "shadow", "shadow2"}}},
		// TMR's hard guarantee: single faults in majority-vote-correctable
		// models must never surface as SDC.
		{Name: "tmr/correctable-zero-sdc", Desc: "correctable single faults under tmr must yield zero SDC",
			Attrs: []string{"fi", "tmr", "gate", "smoke"}, MaxSDCRuns: 0,
			Matrix: Matrix{Workloads: []string{"linearreg"}, Modes: []string{"tmr"},
				Models: []string{"reg", "branch", "addr", "skip"}}},
		// The residual: fault models outside tmr's correction envelope,
		// recorded and pinned, not gated.
		{Name: "tmr/residual", Desc: "uncorrectable models (mem, double) under tmr and haft",
			Attrs: []string{"fi", "tmr"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"linearreg", "canneal"}, Modes: []string{"tmr", "haft"},
				Models: []string{"mem", "double"}}},
		// The wide sweep, too slow for the smoke budget: CI runs and
		// golden-diffs it as its own step.
		{Name: "fi/full-sweep", Desc: "all models x hardened modes over a workload spread",
			Attrs: []string{"fi", "sweep"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"histogram", "linearreg", "stringmatch", "blackscholes"},
				Modes:  []string{"ilr", "haft", "tmr"},
				Models: []string{"reg", "mem", "branch", "addr", "skip", "double"}}},
		// Fault-free health: every mode must run to StatusOK; the records
		// pin instruction and cycle counts per hardened build.
		{Name: "perf/health", Desc: "fault-free runs of every mode (status + pinned RunStats)",
			Attrs: []string{"perf"}, MaxSDCRuns: -1,
			Matrix: Matrix{Workloads: []string{"histogram", "linearreg", "canneal", "blackscholes"},
				Modes: []string{"native", "ilr", "tx", "haft", "tmr"}}},
	} {
		r.MustRegister(s)
	}
	return r
}
