package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Workload names, in run order.
const (
	wExec    = "exec-ladder"
	wFI      = "fi-campaign"
	wServe   = "serve-kv"
	wCluster = "cluster-kv"
)

var allWorkloads = []string{wExec, wFI, wServe, wCluster}

// decl declares one metric. BENCHMARK.json lists the same names, units
// and directions (metrics_test.go keeps the two in step).
type decl struct {
	name, unit string
	higher     bool
	// on names the workload that measures the metric; empty means all.
	// A per-layer metric reads 0 on a workload that does not exercise
	// its layer.
	on string
	// exact marks a simulated or counted value that must repeat
	// bit-for-bit for one seed.
	exact bool
}

func (d decl) measuredOn(workload string) bool { return d.on == "" || d.on == workload }

func (d decl) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd is what a caller of each workload sees. An op is one cell
// run (exec-ladder), one injection (fi-campaign) or one protocol
// operation (serve-kv, cluster-kv); every metric is defined on every
// workload.
var endToEnd = []decl{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s", higher: true},
	{name: "op_p50_us", unit: "us"},
	{name: "op_p90_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "alloc_kb_per_op", unit: "KiB"},
}

func lower(unit, on string, names ...string) []decl {
	var out []decl
	for _, n := range names {
		out = append(out, decl{name: n, unit: unit, on: on})
	}
	return out
}

func exact(ds []decl) []decl {
	for i := range ds {
		ds[i].exact = true
	}
	return ds
}

func higher(ds []decl) []decl {
	for i := range ds {
		ds[i].higher = true
	}
	return ds
}

// perLayer is measured by the --trace 1 run of the named workloads.
var perLayer = slices.Concat(
	// core and the passes
	lower("ms", wExec, "core.harden_ms", "core.harden_ilr_ms", "core.harden_haft_ms", "core.harden_tmr_ms",
		"ilr.apply_ms", "tx.apply_ms", "tmr.apply_ms", "opt.apply_ms"),
	exact(lower("ratio", wExec, "core.static_instrs_x_haft")),
	// vm and htm
	higher(lower("Minstr/s", wExec, "vm.minstr_per_s", "vm.minstr_per_s.native", "vm.minstr_per_s.ilr",
		"vm.minstr_per_s.haft", "vm.minstr_per_s.tmr", "vm.interp_minstr_per_s")),
	lower("ms", wExec, "vm.compile_ms"),
	exact(lower("ratio", wExec, "vm.dyn_instrs_x.ilr", "vm.dyn_instrs_x.haft", "vm.dyn_instrs_x.tmr",
		"vm.cycles_x.ilr", "vm.cycles_x.haft", "vm.cycles_x.tmr", "htm.tx_per_kinstr", "htm.abort_share")),
	lower("us", wFI, "vm.new_machine_us"),
	lower("us", wServe, "vm.reset_us", "vm.kv_batch1_us", "vm.kv_batch32_us"),
	// fault
	lower("ms", wFI, "fault.ref_run_ms", "fault.run_ms_mean"),
	lower("ratio", wFI, "fault.overhead_x"),
	higher(lower("1/s", wFI, "fault.runs_per_s.w1", "fault.runs_per_s.histogram", "fault.runs_per_s.linearreg")),
	exact(lower("ratio", wFI, "fault.outcome_share.hang", "fault.outcome_share.os", "fault.outcome_share.ilr")),
	exact(higher(lower("ratio", wFI, "fault.outcome_share.corrected", "fault.outcome_share.masked"))),
	exact(lower("ratio", wFI, "fault.outcome_share.sdc")),
	// serve
	lower("ms", wServe, "serve.new_server_ms"),
	lower("us", wServe, "serve.read_p50_us", "serve.write_p50_us", "serve.scan_p50_us", "serve.do_p50_us",
		"serve.proto_p50_us", "serve.queue_wait_p50_us", "serve.exec_p50_us"),
	lower("ns", wServe, "serve.verify_ns_per_reply"),
	lower("us", wServe, "serve.metrics_snapshot_us"),
	higher(lower("ratio", wServe, "serve.keys_per_run")),
	higher(lower("1/s", wServe, "serve.scan_keys_per_s")),
	lower("us", wServe, "serve.rtt_p99_us", "serve.rtt_p999_us"),
	lower("count", wServe, "serve.retries", "serve.rejected"),
	higher(lower("count", wServe, "serve.fault_retries", "serve.fault_verify_rejects")),
	// cluster
	lower("ms", wCluster, "cluster.new_ms"),
	lower("us", wCluster, "cluster.read_p50_us", "cluster.write_p50_us", "cluster.do_read_p50_us",
		"cluster.do_write_p50_us", "cluster.proto_p50_us", "cluster.backend_do_p50_us",
		"cluster.slowest_replica_p50_us", "cluster.fanout_spread_p50_us", "cluster.router_self_p50_us",
		"cluster.local_do_p50_us", "cluster.n1r1_rtt_p50_us", "cluster.node_queue_wait_p50_us",
		"cluster.node_exec_p50_us"),
	lower("ratio", wCluster, "cluster.vote_replies_per_req"),
	lower("count", wCluster, "cluster.retries", "cluster.no_quorum"),
	lower("us", wCluster, "cluster.rtt_p99_us", "cluster.rtt_p999_us"),
	lower("ratio", wCluster, "cluster.drift_x"),
	higher(lower("count", wCluster, "cluster.fault_detected")),
	lower("count", wCluster, "cluster.fault_delivered"),
	// obs and the process, on every workload
	lower("ns", "", "obs.ring_emit_ns"),
	lower("ratio", "", "obs.trace_overhead_share"),
	lower("MiB", "", "proc.peak_rss_mb", "proc.heap_live_mb_end"),
	lower("ms", "", "proc.gc_pause_ms"),
	lower("count", "", "proc.gc_cycles", "proc.allocs_per_op"),
)

// value is one measured metric; N is the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// results collects one run's metrics by name.
type results struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     int              `json:"trace"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Slices holds the per-slice (pass, repetition) values behind the
	// end-to-end medians, in time order: drift within a run shows here.
	Slices map[string][]float64 `json:"slices,omitempty"`
	// Layers is the self-time summary of the traced spans.
	Layers []layerTime `json:"layers,omitempty"`
	// Exact holds counts that must repeat for one seed (the shape of
	// golden/fi-campaign.seed1.json).
	Exact any      `json:"exact,omitempty"`
	Notes []string `json:"notes,omitempty"`

	// Failures lists the first correctness failures, for the log.
	Failures []string `json:"failures,omitempty"`
}

func newResults(workload string, seed int64, seconds, trace int) *results {
	return &results{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]value{}, Slices: map[string][]float64{}}
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		u[d.name] = d.unit
	}
	return u
}()

func (r *results) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

// setSlices sets a metric to the median of its per-slice values and
// keeps the values.
func (r *results) setSlices(name string, vals []float64, n int) {
	r.Slices[name] = vals
	r.set(name, median(vals), n)
}

func (r *results) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// check counts one correctness check; a failed one is kept (the first
// few) for the log.
func (r *results) check(ok bool, format string, a ...any) {
	r.checkN(1, ok, format, a...)
}

// checkN counts one check that covers n operations.
func (r *results) checkN(n int, ok bool, format string, a ...any) {
	r.Attempted += n
	if ok {
		return
	}
	r.Failed += n
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	}
}

// reported returns the declared metric set of the run — every name, in
// declaration order — or an error naming a metric the workload should
// have measured and did not.
func (r *results) reported() (map[string]value, error) {
	decls := endToEnd
	if r.Trace == 1 {
		decls = perLayer
	}
	out := make(map[string]value, len(decls))
	var missing []string
	for _, d := range decls {
		v, ok := r.Metrics[d.name]
		switch {
		case ok:
			out[d.name] = v
		case d.measuredOn(r.Workload):
			missing = append(missing, d.name)
		default:
			out[d.name] = value{Unit: d.unit}
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s did not measure %s", r.Workload, strings.Join(missing, ", "))
	}
	return out, nil
}

// table renders the run's metrics, one per line, by name.
func (r *results) table() string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s  %-9s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(&b, "%-34s %14.4f  %-9s %d\n", n, v.Value, v.Unit, v.N)
	}
	return b.String()
}
