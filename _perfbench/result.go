package main

import "fmt"

// result is one workload run: its metrics, its correctness gates and
// the operation counts behind error_ratio.
type result struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64
	counts    map[string]int64 // sample counts and sizes for the stamp
	gates     []gate
	attempted int64
	failed    int64
	spanFile  string
}

type gate struct {
	name   string
	ok     bool
	detail string
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		counts:   map[string]int64{},
	}
}

// check records a correctness gate.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.gates = append(r.gates, gate{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// fail records an operation error as a failed gate.
func (r *result) fail(name string, err error) { r.check(name, false, "%v", err) }

func (r *result) correct() bool {
	for _, g := range r.gates {
		if !g.ok {
			return false
		}
	}
	return true
}

// settle applies the rule that a failing gate fails every item of the
// run.
func (r *result) settle() {
	if r.attempted < 1 {
		r.attempted = 1
	}
	if !r.correct() {
		r.failed = r.attempted
	}
	r.e2e["error_ratio"] = float64(r.failed) / float64(r.attempted)
}

// metricDef names a metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// e2eDefs lists the end-to-end metrics every untraced run reports, in
// print order, and BENCHMARK.json gates.  e2eExtraDefs are printed but
// not gated.  The p50: on gateway-churn a Pusher batch of 16 meets a
// channel of 8, so half of each batch passes at once and half waits,
// and the p50 sits on the gap between the two modes and jumps between
// them from run to run; the mean moves smoothly with the split.  The
// p99, because on a shared VM it follows the hypervisor's steal time
// more than the program.  The others, because they are zero on a
// healthy run or defined on one workload only.
var e2eDefs = []metricDef{
	{"items_per_s", "1/s"},
	{"latency_mean_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_us_per_item", "us"},
	{"allocs_per_item", "count"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

var e2eExtraDefs = []metricDef{
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"channel_ops_per_s", "1/s"},
	{"slo_miss_ratio", "ratio"},
	{"error_ratio", "ratio"},
}
