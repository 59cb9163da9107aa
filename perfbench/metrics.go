package main

import (
	"fmt"

	"splitserve/internal/perfstat"
)

// shareTolerance is how far the layer CPU shares of a traced run may sum
// from the whole before the run counts as failed: samples that no layer
// claims beyond it mean the package→layer table has a hole.
const shareTolerance = 0.02

// layerMetrics fills the per-layer metrics from the traced iteration
// (spans, perfstat counters, CPU profile) and, for the runtime counters,
// the untraced iterations' medians. untracedWall is the median untraced
// drive window in seconds.
func layerMetrics(m map[string]metric, its []*iteration, traced *iteration, t *tracer, tot *spanTotals,
	snap *perfstat.Snapshot, untracedWall float64) error {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sec := func(k spanKind) float64 { return tot.self[k].Seconds() }
	wall := traced.wall.Seconds()

	put("cluster.pump_s", sec(spanPump), "s")
	put("cluster.pump_calls", float64(tot.calls[spanPump]), "count")
	put("cluster.yields", float64(snap.Yields), "count")
	put("cluster.handoff_p99_us", snap.HandoffWall.P99US, "us")
	put("cluster.runq_max", float64(snap.RunQueue.Max), "count")
	put("netsim.flows_max", float64(t.flowsMax), "count")
	put("shard.run_s", sec(spanShardRun), "s")
	put("shard.merge_s", sec(spanMerge), "s")
	put("shard.steals", float64(traced.res.steals), "count")
	put("simclock.step_s", sec(spanStep), "s")
	put("simclock.events", float64(snap.EventsFired), "count")
	put("simclock.pending_max", float64(snap.Clock.HeapHighWater), "count")
	put("simclock.cancelled", float64(snap.Clock.Cancelled), "count")
	put("engine.tasks", float64(snap.EventTypes["engine"]["task_end"]), "count")
	put("engine.actions", float64(snap.EventTypes["engine"]["job_end"]), "count")
	put("observability.eventlog_s", sec(spanEventlog), "s")
	put("observability.trace_s", sec(spanTrace), "s")
	put("observability.attrib_s", sec(spanAttrib), "s")
	put("observability.report_s", sec(spanReport), "s")
	var busEvents uint64
	for _, types := range snap.EventTypes {
		for _, n := range types {
			busEvents += n
		}
	}
	put("observability.bus_events", float64(busEvents), "count")
	put("setup.generate_s", sec(spanGenerate), "s")
	put("setup.baseline_s", sec(spanBaseline), "s")
	put("setup.baselines", float64(traced.baselines), "count")
	put("tracereplay.parse_s", sec(spanParse), "s")
	put("tracereplay.validate_s", sec(spanValidate), "s")
	put("tracereplay.rows", float64(traced.res.rows), "count")
	put("payload.s", tot.total[spanPayload].Seconds(), "s")
	put("payload.calls", float64(tot.calls[spanPayload]), "count")
	put("payload.share", tot.total[spanPayload].Seconds()/wall, "ratio")
	put("trace.overhead", wall/untracedWall-1, "ratio")

	perJob := func(f func(rtCounters) float64) float64 {
		return median(its, func(it *iteration) float64 { return f(it.rt) / float64(it.res.jobs) })
	}
	put("runtime.alloc_bytes_per_job", perJob(func(r rtCounters) float64 { return float64(r.allocBytes) }), "B")
	put("runtime.allocs_per_job", perJob(func(r rtCounters) float64 { return float64(r.allocObjects) }), "count")
	put("runtime.gc_cycles", median(its, func(it *iteration) float64 { return float64(it.rt.gcCycles) }), "count")
	put("runtime.gc_cpu_share", median(its, func(it *iteration) float64 {
		if it.rt.busyCPU <= 0 {
			return 0
		}
		return it.rt.gcCPU / it.rt.busyCPU
	}), "ratio")

	samples, err := parseProfile(traced.profile)
	if err != nil {
		return err
	}
	shares := cpuShares(samples)
	for _, l := range layers {
		put(l+".cpu_share", shares[l], "ratio")
	}
	put("observability.outputs_share", shares[outputsBucket], "ratio")
	put("trace.cpu_share", shares[tracingBucket], "ratio")
	put("other.cpu_share", shares[""], "ratio")
	if shares[""] > shareTolerance {
		return fmt.Errorf("layer CPU shares sum to %.1f%% of samples", 100*(1-shares[""]))
	}
	return nil
}

// outputsBucket collects the samples taken while outputs were written.
const outputsBucket = "outputs"

// cpuShares buckets the traced window's CPU samples: samples labelled with
// the outputs phase form their own bucket, every other sample goes to its
// layer ("" when none claims it). Shares are of total sampled CPU time.
func cpuShares(samples []cpuSample) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		key := sampleLayer(s.stack)
		if s.labels["phase"] == "outputs" && key != "runtime" {
			key = outputsBucket
		}
		by[key] += s.nanos
		total += s.nanos
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	return out
}
