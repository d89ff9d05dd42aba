package main

import "strings"

// stageSlots are the stage names per-stage metrics are reported for.
// "src" is the load generator's writer, "f1".."f4" the filters, "sink"
// the pipeline sink or gateway subscriber, "pump" the gateway's
// forwarding thread.  A slot a workload does not have reads 0.
var (
	nextSlots = []string{"f1", "f2", "f3", "f4", "sink", "pump"}
	putSlots  = []string{"src", "f1", "f2", "f3", "f4", "pump"}
)

// codecNames are the ladder's wire record rungs (see codecRecords).
var codecNames = []string{"transfer_req", "transfer_reply_k1", "transfer_reply_k16", "deliver_k16", "control_gob"}

// rungNames are the ladder's timed probes.  A rung measured once per
// link kind names its kind after a colon: "transport.hop:unix" reports
// as transport.hop_ns.unix, "uid.mint" as uid.mint_ns.
var rungNames = []string{
	"kernel.invoke_local", "kernel.invoke_cross:netsim", "kernel.invoke_cross:unix",
	"netsim.hop", "transport.hop:unix", "wire.slab_cycle",
	"stripemap.load", "stripemap.store_delete", "uid.mint",
}

// rungMetrics names a rung's ns/op and allocs/op metrics.
func rungMetrics(rung string) (ns, allocs string) {
	base, kind, ok := strings.Cut(rung, ":")
	if !ok {
		return base + "_ns", base + "_allocs"
	}
	return base + "_ns." + kind, base + "_allocs." + kind
}

// layerDefs lists every per-layer metric a traced run reports, in
// print order.  A metric a workload bypasses is never set and reads 0.
func layerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name, unit}) }
	for _, s := range nextSlots {
		add("transput.next_wait_ns_per_item."+s, "ns")
	}
	for _, s := range putSlots {
		add("transput.put_wait_ns_per_item."+s, "ns")
	}
	for _, s := range nextSlots {
		add("transput.stage_self_share."+s, "ratio")
	}
	add("transput.items_per_stream_invocation", "count")
	add("transput.build_ms", "ms")
	add("transput.declare_ns", "ns")
	add("transput.retire_ns", "ns")
	add("transput.channel_ops_per_s", "1/s")
	add("kernel.invocations_per_item", "count")
	add("kernel.process_switches_per_item", "count")
	add("kernel.cap_cache_hit_ratio", "ratio")
	add("kernel.cap_cache_hits", "count")
	add("kernel.cap_cache_misses", "count")
	add("stripemap.lookup_contention_per_op", "ratio")
	add("wire.bytes_per_item", "B")
	add("wire.frames_per_item", "count")
	add("proc.vol_ctx_switches_per_item", "count")
	add("runtime.sched_wait_ns_per_item", "ns")
	add("runtime.gc_cpu_share", "ratio")
	add("filters.self_ns_per_item", "ns")
	add("loadgen.lag_p99_us", "us")
	add("loadgen.slo_miss_ratio", "ratio")
	add("trace.overhead_ratio", "ratio")
	add("ladder.residual_share", "ratio")
	for _, rg := range rungNames {
		ns, allocs := rungMetrics(rg)
		add(ns, "ns")
		add(allocs, "count")
	}
	for _, c := range codecNames {
		add("wire.encode_ns."+c, "ns")
		add("wire.decode_ns."+c, "ns")
		add("wire.encode_allocs."+c, "count")
		add("wire.decode_allocs."+c, "count")
		add("wire.frame_bytes."+c, "B")
	}
	return d
}

// counterLayers fills the per-layer metrics derived from a kernel
// counter delta over `items` items.
func counterLayers(layer map[string]float64, d delta, items int64) {
	get := func(n string) float64 { return float64(d.met.Get(n)) }
	stream := get("transfer_invocations") + get("deliver_invocations")
	layer["transput.items_per_stream_invocation"] = ratio(get("items_moved"), stream)
	layer["kernel.invocations_per_item"] = perItem(get("invocations"), items)
	layer["kernel.process_switches_per_item"] = perItem(get("process_switches"), items)
	hits, misses := get("cap_cache_hits"), get("cap_cache_misses")
	layer["kernel.cap_cache_hits"] = hits
	layer["kernel.cap_cache_misses"] = misses
	layer["kernel.cap_cache_hit_ratio"] = ratio(hits, hits+misses)
	layer["wire.bytes_per_item"] = perItem(get("wire_bytes"), items)
	layer["wire.frames_per_item"] = perItem(get("wire_frames_encoded"), items)
	layer["proc.vol_ctx_switches_per_item"] = perItem(float64(d.nvcsw), items)
	layer["runtime.sched_wait_ns_per_item"] = perItem(d.schedNs, items)
	layer["runtime.gc_cpu_share"] = ratio(d.gcCPU, d.cpu)
}

// stageLayers fills the per-stage span aggregates.
func stageLayers(layer map[string]float64, t *tracer) {
	tot := t.totals()
	for _, s := range nextSlots {
		st := tot[s]
		layer["transput.next_wait_ns_per_item."+s] = perItem(float64(st.nextNs), st.items)
		layer["transput.stage_self_share."+s] = st.selfShare()
	}
	for _, s := range putSlots {
		st := tot[s]
		layer["transput.put_wait_ns_per_item."+s] = perItem(float64(st.putNs), st.puts)
	}
}
