package main

import (
	"regexp"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program reports. They must name the same metrics.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []benchMetric, decls []decl, bounded bool) {
		if len(file) != len(decls) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(file), len(decls))
			return
		}
		for i, d := range decls {
			m := file[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better() {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, declared %s %s %s", kind, i, m, d.name, d.unit, d.better())
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)

	if len(bf.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if w.name != allWorkloads[i] {
			t.Errorf("workload %d is %s, allWorkloads says %s", i, w.name, allWorkloads[i])
		}
	}
}

// The driver refuses a file outside these limits before a single run.
func TestBenchmarkFileWithinContract(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]benchMetric{}, bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %+v: bad or repeated name, or bad unit", m)
		}
		seen[m.Name] = true
	}
	for _, w := range bf.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %+v: bad or repeated name, or why not within 200 characters", w)
		}
		seen[w.Name] = true
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus warm-up, set-up
	// and checks (about half as much again), must fit 3420 s with two
	// builds.
	if runs := 4 + 22*len(bf.Workloads); float64(runs*bf.RunSeconds)*1.5 > 3420-200 {
		t.Errorf("%d runs of %d s do not fit the driver's time", runs, bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Command) != 2 || bf.Command[0] != "bash" || bf.Command[1] != "bench/run.sh" {
		t.Errorf("command %v", bf.Command)
	}
	setup := bf.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric %+v, want setup_s", setup)
	}
}

// A run reports every declared metric of its kind: measured, or 0 for a
// layer the workload does not exercise; a metric it should have measured
// and did not is an error.
func TestReportedCoversEveryDeclaredMetric(t *testing.T) {
	r := newResults(wServe, 1, 20, 1)
	for _, d := range perLayer {
		if d.measuredOn(wServe) && d.name != "serve.do_p50_us" {
			r.set(d.name, 1, 1)
		}
	}
	if _, err := r.reported(); err == nil {
		t.Error("a missing serve metric went unnoticed")
	}
	r.set("serve.do_p50_us", 29, 100)
	got, err := r.reported()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(got), len(perLayer))
	}
	if v := got["cluster.new_ms"]; v.Value != 0 || v.Unit != "ms" {
		t.Errorf("cluster.new_ms on serve-kv = %+v, want 0 ms", v)
	}
	if v := got["serve.do_p50_us"]; v.Value != 29 {
		t.Errorf("serve.do_p50_us = %+v", v)
	}
}
