package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// An untraced run divides its timed length between timedInstances
// fresh instances of its workload, and reports each end-to-end figure
// as the median over them.  Figures vary more between instances than
// within one, because the scheduler settles the stages' goroutines into
// a different pattern each time: on gateway-churn three instances in
// one process read a latency p50 of 31, 33 and 41 µs.
const timedInstances = 6

// An untraced run sets its workload up this many times, the timed
// instances included; setup_s is the median over the quiet set-ups
// (keepQuiet).  On 2 vCPUs a pipeline sets up in ~10 ms and the
// gateway, admitting its population, in ~0.5 s: a single set-up varies
// by ±30 %, the median of this many by a few per cent.
const (
	pipeSetupReps = 41
	gwSetupReps   = 15
)

var clockBase = time.Now()

// nowNs is the benchmark's monotonic clock: ns since start.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// runOpts are a run's command-line settings.
type runOpts struct {
	seed   uint64
	length time.Duration
	trace  bool
	outDir string
}

func runWorkload(name string, o runOpts) (*result, error) {
	switch name {
	case paperB1.name:
		return runPipeline(paperB1, o), nil
	case wireUDS.name:
		return runPipeline(wireUDS, o), nil
	case gatewayName:
		return runGateway(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s, %s or all)", name, paperB1.name, wireUDS.name, gatewayName)
}

const gatewayName = "gateway-churn"

// pipeRun is one pipeline instance taken through its timed phase.
type pipeRun struct {
	in   *pipeInst
	tm   timed
	life delta // build to end of stream
}

// timedPipe sets up a pipeline instance, runs its timed phase for d
// and tears it down, recording gates on r.
func timedPipe(r *result, spec *pipeSpec, o runOpts, tr *tracer, d time.Duration) (*pipeRun, bool) {
	openDur := time.Duration(openShare * float64(d))
	in, err := startPipe(spec, o.seed, tr, openDur)
	if err != nil {
		r.fail(spec.name+".setup", err)
		if in != nil {
			in.finish(r, nil)
		}
		return nil, false
	}
	pr := &pipeRun{in: in}
	pr.tm, err = in.runTimed(d)
	if err != nil {
		r.fail(spec.name+".timed", err)
	}
	pr.life = in.finish(r, &pr.tm)
	return pr, err == nil
}

func runPipeline(spec *pipeSpec, o runOpts) *result {
	r := newResult(spec.name)
	defer r.settle()
	if o.trace {
		tracePipeline(r, spec, o)
		return r
	}
	var setups []float64
	var steal []int64
	for rep := timedInstances; rep < pipeSetupReps; rep++ {
		in, err := startPipe(spec, o.seed, nil, 0)
		if in != nil {
			setups, steal = append(setups, in.setup.Seconds()), append(steal, in.setupSteal)
			in.finish(r, nil)
		}
		if err != nil {
			r.fail(spec.name+".setup", err)
			return r
		}
	}
	var subs []*result
	for x := 0; x < timedInstances; x++ {
		pr, ok := timedPipe(r, spec, o, nil, o.length/timedInstances)
		if !ok {
			return r
		}
		in, tm := pr.in, pr.tm
		setups, steal = append(setups, in.setup.Seconds()), append(steal, in.setupSteal)
		sub := newResult(spec.name)
		efficiencyE2E(sub, tm)
		scheduled := in.latStats.samples
		if spec.open {
			scheduled = in.nOpen.Load()
			sub.counts["open_loop_items"] = scheduled
		}
		latencyE2E(sub, in.latStats, scheduled)
		subs = append(subs, sub)
	}
	medianOver(r, subs)
	r.e2e["setup_s"] = quietMedian(setups, steal)
	r.counts["setup_reps"] = int64(len(setups))
	if spec.open {
		r.counts["open_loop_rate_per_s"] = openRate
	}
	return r
}

// medianOver sets r's end-to-end figures to the median over the timed
// instances' figures, and adds up their counts.
func medianOver(r *result, subs []*result) {
	for name := range subs[0].e2e {
		xs := make([]float64, len(subs))
		for i, s := range subs {
			xs[i] = s.e2e[name]
		}
		r.e2e[name] = median(xs)
	}
	for _, s := range subs {
		for name, n := range s.counts {
			r.counts[name] += n
		}
	}
	r.counts["timed_instances"] = int64(len(subs))
}

// tracePipeline runs the workload untraced for half the length, then
// traced for the other half, then the ladder.
func tracePipeline(r *result, spec *pipeSpec, o runOpts) {
	half := o.length / 2
	plain, ok := timedPipe(r, spec, o, nil, half)
	if !ok {
		return
	}
	tr := newTracer()
	traced, ok := timedPipe(r, spec, o, tr, half)
	if !ok {
		return
	}
	in, tm := traced.in, traced.tm
	plainRate, tracedRate := plain.tm.thru.rate, tm.thru.rate

	L := r.layer
	// Counters over the instance's whole life, so the paper's exact
	// per-item counts are not blurred by items in flight at the marks.
	counterLayers(L, traced.life, traced.in.emitted.Load())
	stageLayers(L, tr)
	L["transput.build_ms"] = float64(in.buildDur.Microseconds()) / 1e3
	L["loadgen.lag_p99_us"] = in.lag.quantile(0.99) / 1e3
	if spec.open {
		L["loadgen.slo_miss_ratio"] = ratio(float64(in.latStats.overSLO+in.nOpen.Load()-in.latStats.samples), float64(in.nOpen.Load()))
	}
	L["trace.overhead_ratio"] = ratio(tracedRate, plainRate)
	L["filters.self_ns_per_item"] = filterFloor(o.seed, spec.size, spec.fns)
	if err := runLadder(L); err != nil {
		r.fail("ladder", err)
		return
	}
	// The layers' share of one item's wall time: the stream
	// invocations (local round trips on one node; two socket hops each
	// across nodes), the codec for each link an item crosses, and the
	// filter bodies.
	explained := L["filters.self_ns_per_item"]
	if spec.nodes > 1 {
		links := float64(len(spec.fns) + 1)
		perItemCodec := (L["wire.encode_ns.transfer_reply_k16"] + L["wire.decode_ns.transfer_reply_k16"]) / 16
		explained += L["wire.frames_per_item"]*L["transport.hop_ns.unix"] + links*perItemCodec
	} else {
		explained += L["kernel.invocations_per_item"] * L["kernel.invoke_local_ns"]
	}
	L["ladder.residual_share"] = residual(plainRate, explained)
	r.counts["traced_items"] = tm.allItems
	writeSpanFile(r, tr, o)
}

// residual is the share of one item's end-to-end time (1/rate) that
// the explained per-item cost leaves over.  It is negative when stages
// overlap on several CPUs by more than the unexplained time.
func residual(rate, explainedNs float64) float64 {
	if rate <= 0 {
		return 0
	}
	e2e := 1e9 / rate
	return (e2e - explainedNs) / e2e
}

func writeSpanFile(r *result, tr *tracer, o runOpts) {
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, o.seed))
	kept, dropped, err := tr.writeSpans(path)
	if err != nil {
		r.fail("trace.spans", err)
		return
	}
	r.spanFile = path
	r.counts["spans_kept"] = kept
	r.counts["spans_dropped"] = dropped
}

func runGateway(o runOpts) *result {
	r := newResult(gatewayName)
	defer r.settle()
	if o.trace {
		traceGateway(r, o)
		return r
	}
	var setups []float64
	var steal []int64
	for rep := timedInstances; rep < gwSetupReps; rep++ {
		g, err := startGateway(o.seed, nil)
		if g != nil {
			setups, steal = append(setups, g.setup.Seconds()), append(steal, g.setupSteal)
			g.finish(r, nil)
		}
		if err != nil {
			r.fail("gateway.setup", err)
			return r
		}
	}
	var subs []*result
	for x := 0; x < timedInstances; x++ {
		g, tm, ok := timedGateway(r, o, nil, o.length/timedInstances)
		if !ok {
			return r
		}
		setups, steal = append(setups, g.setup.Seconds()), append(steal, g.setupSteal)
		sub := newResult(gatewayName)
		efficiencyE2E(sub, tm.timed)
		latencyE2E(sub, g.latStats, g.latStats.samples)
		sub.e2e["channel_ops_per_s"] = float64(tm.churnPairs) / tm.all.wall.Seconds()
		sub.counts["churn_pairs"] = tm.churnPairs
		subs = append(subs, sub)
	}
	medianOver(r, subs)
	r.e2e["setup_s"] = quietMedian(setups, steal)
	r.counts["population_pairs"] = gwPairs
	r.counts["setup_reps"] = int64(len(setups))
	return r
}

func timedGateway(r *result, o runOpts, tr *tracer, d time.Duration) (*gwInst, gwTimed, bool) {
	g, err := startGateway(o.seed, tr)
	if err != nil {
		r.fail("gateway.setup", err)
		if g != nil {
			g.finish(r, nil)
		}
		return nil, gwTimed{}, false
	}
	tm := g.runTimed(d)
	g.finish(r, &tm)
	return g, tm, true
}

func traceGateway(r *result, o runOpts) {
	half := o.length / 2
	_, plain, ok := timedGateway(r, o, nil, half)
	if !ok {
		return
	}
	tr := newTracer()
	g, tm, ok := timedGateway(r, o, tr, half)
	if !ok {
		return
	}
	plainRate, tracedRate := plain.thru.rate, tm.thru.rate
	L := r.layer
	counterLayers(L, tm.all, tm.allItems)
	stageLayers(L, tr)
	stream := float64(tm.all.met.Get("transfer_invocations") + tm.all.met.Get("deliver_invocations"))
	L["stripemap.lookup_contention_per_op"] = ratio(float64(tm.all.met.Get("channel_lookup_contention")), stream+2*float64(tm.churnPairs))
	L["transput.declare_ns"] = perItem(float64(g.declareNs), tm.churnPairs)
	L["transput.retire_ns"] = perItem(float64(g.retireNs), tm.churnPairs)
	L["transput.channel_ops_per_s"] = float64(tm.churnPairs) / tm.all.wall.Seconds()
	L["trace.overhead_ratio"] = ratio(tracedRate, plainRate)
	if err := runLadder(L); err != nil {
		r.fail("ladder", err)
		return
	}
	explained := L["kernel.invocations_per_item"] * L["kernel.invoke_local_ns"]
	L["ladder.residual_share"] = residual(plainRate, explained)
	r.counts["traced_items"] = tm.allItems
	writeSpanFile(r, tr, o)
}

// latencyE2E reports a latency distribution and its sample counts.  An
// item scheduled but never timed counts as an SLO miss.
func latencyE2E(r *result, st latencyStats, scheduled int64) {
	r.e2e["latency_mean_us"] = st.mean / 1e3
	r.e2e["latency_p50_us"] = st.p50 / 1e3
	r.e2e["latency_p90_us"] = st.p90 / 1e3
	r.e2e["latency_p99_us"] = st.p99 / 1e3
	missing := scheduled - st.samples
	if missing < 0 {
		missing = 0
	}
	r.e2e["slo_miss_ratio"] = ratio(float64(st.overSLO+missing), float64(scheduled))
	r.counts["latency_samples"] = st.samples
	r.counts["latency_windows"] = int64(st.windows)
	r.counts["latency_p99_beyond"] = st.beyondP99
}

// efficiencyE2E reports throughput, per-item cost and the live heap.
func efficiencyE2E(r *result, tm timed) {
	r.e2e["items_per_s"] = tm.thru.rate
	r.e2e["cpu_us_per_item"] = tm.eff.cpuPerItemNs / 1e3
	r.e2e["allocs_per_item"] = tm.eff.allocsPerItem
	r.e2e["live_heap_mb"] = tm.heapMB
	r.counts["throughput_items"] = tm.thru.items
	r.counts["throughput_windows"] = int64(tm.thru.windows)
	r.counts["throughput_quiet_windows"] = int64(len(tm.thru.quiet))
	r.counts["efficiency_items"] = tm.eff.items
	r.counts["efficiency_windows"] = int64(tm.eff.windows)
	r.counts["efficiency_quiet_windows"] = int64(len(tm.eff.quiet))
}
