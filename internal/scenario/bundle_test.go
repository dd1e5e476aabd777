package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

func rec(key string, outcome Outcome) Record {
	return Record{
		Key: key, Scenario: "t/s", Outcome: outcome, Runs: 10, SDCRuns: 1, CorrectedRuns: 2,
		Counts: map[string]int{"Masked": 9, "SDC": 1},
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := NewBundle(4, "attr=t", []Record{rec("b", OutcomePass), rec("a", OutcomeFail)})
	if b.Records[0].Key != "a" {
		t.Error("records not sorted by key")
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != 4 || back.Filter != "attr=t" || len(back.Records) != 2 {
		t.Errorf("round-trip lost fields: %+v", back)
	}
	if back.Summary.Runs != 2 || back.Summary.SDCRuns != 2 || len(back.Summary.Failed) != 1 {
		t.Errorf("summary wrong after round-trip: %+v", back.Summary)
	}
	if _, err := DecodeBundle([]byte(`{"version": 99}`)); err == nil {
		t.Error("wrong bundle version accepted")
	}
	dup, err := NewBundle(4, "", []Record{rec("a", OutcomePass), rec("a", OutcomePass)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("bundle with a duplicate key: got %v, want rejection", err)
	}
}

func TestDiffSemantics(t *testing.T) {
	golden := NewBundle(1, "", []Record{
		rec("same", OutcomePass),
		rec("missing", OutcomePass),
		rec("flipped", OutcomePass),
		rec("drifted", OutcomePass),
	})
	drift := rec("drifted", OutcomePass)
	drift.SDCRuns = 7
	cur := NewBundle(1, "", []Record{
		rec("same", OutcomePass),
		rec("flipped", OutcomeFail),
		drift,
		rec("added", OutcomePass),
	})
	rep := Diff(golden, cur)
	if !rep.Regression() {
		t.Fatal("regressions not detected")
	}
	fields := map[string]string{}
	for _, e := range rep.Regressions {
		fields[e.Key] = e.Field
	}
	if fields["missing"] != "presence" {
		t.Errorf("missing run: field %q, want presence", fields["missing"])
	}
	if fields["flipped"] != "outcome" {
		t.Errorf("outcome change: field %q, want outcome", fields["flipped"])
	}
	if fields["drifted"] != "sdc_runs" {
		t.Errorf("deterministic drift: field %q, want sdc_runs", fields["drifted"])
	}
	if _, bad := fields["same"]; bad {
		t.Error("identical run reported as regression")
	}
	if len(rep.Additions) != 1 || rep.Additions[0] != "added" {
		t.Errorf("additions %v, want [added]", rep.Additions)
	}
}

func TestDiffString(t *testing.T) {
	golden := NewBundle(1, "", []Record{rec("a", OutcomePass)})
	cur := NewBundle(1, "", []Record{rec("a", OutcomeFail)})
	out := Diff(golden, cur).String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "a") {
		t.Errorf("diff rendering %q lacks the regression", out)
	}
	same := Diff(golden, golden).String()
	if !strings.Contains(same, "identical") {
		t.Errorf("identical diff rendering %q", same)
	}
}

// FuzzDecodeBundle: DecodeBundle never panics, an accepted bundle
// re-encodes and decodes to an equal bundle, and a bundle never
// differs from itself.
func FuzzDecodeBundle(f *testing.F) {
	for _, path := range []string{goldenPath, sweepGoldenPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("decoded bundle does not encode: %v", err)
		}
		back, err := DecodeBundle(enc)
		if err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(b, back) {
			t.Fatalf("bundle changed across encode/decode:\n%+v\n%+v", b, back)
		}
		if rep := Diff(b, b); rep.Regression() || len(rep.Additions) > 0 {
			t.Fatalf("bundle differs from itself:\n%s", rep)
		}
	})
}
