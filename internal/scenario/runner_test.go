package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// fiTestRegistry declares one small real fault-injection scenario:
// 6 runs (3 modes x 2 models), a few injections each.
func fiTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := &Registry{}
	r.MustRegister(&Scenario{
		Name: "t/fi", Desc: "worker fixture", Attrs: []string{"t"}, Injections: 3,
		Matrix: Matrix{
			Workloads: []string{"histogram"},
			Modes:     []string{"native", "ilr", "haft"},
			Models:    []string{"reg", "skip"},
		},
		MaxSDCRuns: -1,
	})
	return r
}

func encode(t *testing.T, b *Bundle) []byte {
	t.Helper()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunnerWorkerIndependence: worker count must not change the
// bundle.
func TestRunnerWorkerIndependence(t *testing.T) {
	r := fiTestRegistry(t)
	one, err := r.Run(Config{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Summary.ByOutcome["pass"]; got != 6 {
		t.Fatalf("%d of 6 records passed: %v", got, one.Summary.Failed)
	}
	many, err := r.Run(Config{Seed: 9, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, one), encode(t, many)) {
		t.Error("bundle depends on worker count")
	}
}

// TestRunnerGateRecordsBody: a failed SDC gate still records the
// observed counts (the bundle pins what happened, not just that it
// failed).
func TestRunnerGateRecordsBody(t *testing.T) {
	r := &Registry{}
	// Native histogram under reg faults sees SDC; MaxSDCRuns 0 turns
	// that into a gate failure with the campaign body attached.
	r.MustRegister(&Scenario{
		Name: "t/gate", Desc: "gate fixture", Attrs: []string{"t"}, Injections: 30,
		Matrix: Matrix{Workloads: []string{"histogram"}, Modes: []string{"native"},
			Models: []string{"reg"}},
		MaxSDCRuns: 0,
	})
	b, err := r.Run(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := b.Records[0]
	if rec.Outcome != OutcomeFail {
		t.Fatalf("native run under 30 reg faults saw no SDC at this seed (outcome %s): the gate is untested", rec.Outcome)
	}
	if rec.Runs == 0 || len(rec.Counts) == 0 || rec.SDCRuns == 0 {
		t.Errorf("gate failure lost its body: runs=%d counts=%v sdc=%d",
			rec.Runs, rec.Counts, rec.SDCRuns)
	}
	if !strings.Contains(rec.Err, "gate") {
		t.Errorf("gate failure err %q does not mention the gate", rec.Err)
	}
}
