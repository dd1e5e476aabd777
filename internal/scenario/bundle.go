// The results bundle, in the mold of the BENCH_*.json artifacts, and
// the golden diff CI gates on. Every record is a pure function of its
// run seed and no field holds wall-clock time, so two bundles from one
// registry, seed and filter encode byte-identically anywhere.

package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Outcome classifies one record.
type Outcome string

// Record outcomes.
const (
	// OutcomePass: the campaign ran, the stepwise twin agreed and every
	// gate held.
	OutcomePass Outcome = "pass"
	// OutcomeFail: anything else; Err says what.
	OutcomeFail Outcome = "fail"
)

// Record is the structured result of one matrix run.
type Record struct {
	// Key is the run's stable identity (see Run.Key).
	Key      string `json:"key"`
	Scenario string `json:"scenario"`
	Axes     Axes   `json:"axes"`
	// Seed is the run's private seed.
	Seed    uint64  `json:"seed"`
	Outcome Outcome `json:"outcome"`
	// Runs is the number of campaign injections (1 for a health run).
	Runs int `json:"runs,omitempty"`
	// Counts is the campaign's outcome histogram (Table 1 outcome name
	// → runs), or "status/<status>" for a health run.
	Counts map[string]int `json:"counts"`
	// SDCRuns / CorrectedRuns / CorrectedFaults summarize the fault
	// tolerance activity of the run.
	SDCRuns         int    `json:"sdc_runs"`
	CorrectedRuns   int    `json:"corrected_runs"`
	CorrectedFaults uint64 `json:"corrected_faults"`
	// Instrs / Cycles are the (reference) run's RunStats.
	Instrs uint64 `json:"instrs,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
	// Err is the failure reason, if any.
	Err string `json:"err,omitempty"`
}

// Summary is the aggregate of a bundle's records.
type Summary struct {
	Runs            int            `json:"runs"`
	ByOutcome       map[string]int `json:"by_outcome"`
	SDCRuns         int            `json:"sdc_runs"`
	CorrectedRuns   int            `json:"corrected_runs"`
	CorrectedFaults uint64         `json:"corrected_faults"`
	// Failed lists the keys of failed records.
	Failed []string `json:"failed,omitempty"`
}

// Bundle is the machine-readable result of one matrix invocation:
// records sorted by key plus their summary.
type Bundle struct {
	Version int      `json:"version"`
	Seed    int64    `json:"seed"`
	Filter  string   `json:"filter"`
	Records []Record `json:"records"`
	Summary Summary  `json:"summary"`
}

// bundleVersion is bumped on any incompatible format change.
const bundleVersion = 2

// NewBundle builds a bundle from records: sorts by key and computes
// the summary.
func NewBundle(seed int64, filter string, records []Record) *Bundle {
	recs := append([]Record(nil), records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	s := Summary{ByOutcome: map[string]int{}}
	for _, r := range recs {
		s.Runs++
		s.ByOutcome[string(r.Outcome)]++
		s.SDCRuns += r.SDCRuns
		s.CorrectedRuns += r.CorrectedRuns
		s.CorrectedFaults += r.CorrectedFaults
		if r.Outcome != OutcomePass {
			s.Failed = append(s.Failed, r.Key)
		}
	}
	return &Bundle{Version: bundleVersion, Seed: seed, Filter: filter, Records: recs, Summary: s}
}

// Encode serializes the bundle as indented JSON.
func (b *Bundle) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// DecodeBundle parses a bundle produced by Encode. Record keys must be
// unique; the summary is recomputed from the records.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("scenario: bad results bundle: %w", err)
	}
	if b.Version != bundleVersion {
		return nil, fmt.Errorf("scenario: results bundle version %d, want %d", b.Version, bundleVersion)
	}
	seen := make(map[string]bool, len(b.Records))
	for _, r := range b.Records {
		if seen[r.Key] {
			return nil, fmt.Errorf("scenario: results bundle holds run %q twice", r.Key)
		}
		seen[r.Key] = true
	}
	return NewBundle(b.Seed, b.Filter, b.Records), nil
}

// DiffEntry is one golden-vs-current divergence.
type DiffEntry struct {
	Key, Field, Golden, Got string
}

// DiffReport is the result of comparing a bundle against a golden.
type DiffReport struct {
	// Regressions fail CI: missing runs, outcome changes, and any
	// change in a pinned result field.
	Regressions []DiffEntry
	// Additions are runs absent from the golden (informational).
	Additions []string
}

// Regression reports whether the diff must fail CI.
func (d *DiffReport) Regression() bool { return len(d.Regressions) > 0 }

// String renders the report for humans.
func (d *DiffReport) String() string {
	if !d.Regression() && len(d.Additions) == 0 {
		return "scenario diff: bundles identical\n"
	}
	var sb strings.Builder
	for _, e := range d.Regressions {
		fmt.Fprintf(&sb, "REGRESSION %s: %s golden=%s got=%s\n", e.Key, e.Field, e.Golden, e.Got)
	}
	for _, k := range d.Additions {
		fmt.Fprintf(&sb, "new run (not in golden, regenerate to pin): %s\n", k)
	}
	fmt.Fprintf(&sb, "scenario diff: %d regression(s), %d addition(s)\n",
		len(d.Regressions), len(d.Additions))
	return sb.String()
}

// Diff compares a current bundle against the golden: every golden run
// must be present with the same outcome and reproduce its seed, counts,
// fault-tolerance tallies and RunStats exactly.
func Diff(golden, got *Bundle) *DiffReport {
	rep := &DiffReport{}
	cur := make(map[string]Record, len(got.Records))
	for _, r := range got.Records {
		cur[r.Key] = r
	}
	for _, g := range golden.Records {
		c, ok := cur[g.Key]
		if !ok {
			rep.Regressions = append(rep.Regressions, DiffEntry{
				Key: g.Key, Field: "presence", Golden: string(g.Outcome), Got: "missing"})
			continue
		}
		delete(cur, g.Key)
		if c.Outcome != g.Outcome {
			rep.Regressions = append(rep.Regressions, DiffEntry{
				Key: g.Key, Field: "outcome", Golden: string(g.Outcome), Got: string(c.Outcome)})
			continue
		}
		cmp := func(field string, want, have any) {
			if w, h := fmt.Sprint(want), fmt.Sprint(have); w != h {
				rep.Regressions = append(rep.Regressions, DiffEntry{
					Key: g.Key, Field: field, Golden: w, Got: h})
			}
		}
		cmp("seed", g.Seed, c.Seed)
		cmp("runs", g.Runs, c.Runs)
		cmp("sdc_runs", g.SDCRuns, c.SDCRuns)
		cmp("corrected_runs", g.CorrectedRuns, c.CorrectedRuns)
		cmp("corrected_faults", g.CorrectedFaults, c.CorrectedFaults)
		cmp("instrs", g.Instrs, c.Instrs)
		cmp("cycles", g.Cycles, c.Cycles)
		cmp("counts", g.Counts, c.Counts)
	}
	for k := range cur {
		rep.Additions = append(rep.Additions, k)
	}
	sort.Strings(rep.Additions)
	return rep
}
