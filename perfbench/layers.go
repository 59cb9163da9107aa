package main

import "strings"

// layers are the simulator's layers the benchmark reports, named after
// the repo's modules. Their CPU shares of a traced run add up to the
// whole, apart from samples in no layer (reported as other.cpu_share).
var layers = []string{
	"payload", "engine", "cluster", "shard", "netsim", "simclock",
	"substrate", "observability", "tracereplay", "runtime",
}

// packageLayer maps every package under internal/ to exactly one layer.
// TestEveryPackageHasOneLayer fails when a package appears that is not
// listed here.
var packageLayer = map[string]string{
	"internal/workloads":              "payload",
	"internal/workloads/kmeans":       "payload",
	"internal/workloads/pagerank":     "payload",
	"internal/workloads/shufflereuse": "payload",
	"internal/workloads/sparkpi":      "payload",
	"internal/workloads/tpcds":        "payload",
	"internal/spark/engine":           "engine",
	"internal/spark/rdd":              "engine",
	"internal/spark/shuffle":          "engine",
	// core is SplitServe's engine.Backend for single-job runs.
	"internal/core":    "engine",
	"internal/cluster": "cluster",
	// costmgr and experiments decide and compose what the cluster
	// scheduler runs; neither is on the benchmark's path.
	"internal/costmgr":     "cluster",
	"internal/experiments": "cluster",
	"internal/shard":       "shard",
	"internal/netsim":      "netsim",
	"internal/simclock":    "simclock",
	"internal/cloud":       "substrate",
	"internal/hdfs":        "substrate",
	"internal/storage":     "substrate",
	"internal/s3q":         "substrate",
	"internal/warmpool":    "substrate",
	"internal/billing":     "substrate",
	"internal/autoscale":   "substrate",
	// simrand draws the provider's boot and cold-start delays.
	"internal/simrand":     "substrate",
	"internal/eventlog":    "observability",
	"internal/metrics":     "observability",
	"internal/telemetry":   "observability",
	"internal/attrib":      "observability",
	"internal/perfstat":    "observability",
	"internal/cliutil":     "observability",
	"internal/loadbench":   "observability",
	"internal/tracereplay": "tracereplay",
}

const modulePath = "splitserve/"

// gcFrames mark a sample as Go allocator or collector work wherever they
// sit on its stack.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.wbBufFlush", "runtime.bulkBarrierPreWrite", "runtime.GC",
}

// tracingBucket collects samples in the benchmark's own span recording:
// the cost of tracing, which untraced runs do not pay.
const tracingBucket = "trace"

// sampleLayer assigns one CPU sample to a layer: runtime when the
// allocator or collector is on its stack, otherwise the layer of the
// leaf-most frame that belongs to the repo or to the benchmark's own
// workload types (standard-library leaves such as sort or a channel send
// are charged to the repo code that called them). A stack with no such
// frame is runtime when its leaf is in the Go runtime (the goroutine
// scheduler between handoffs, idle GC workers) or is C code, which in a
// CGO_ENABLED=0 build is only the race detector's. "" means no layer.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "runtime"
			}
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main.(*tracer)"), strings.HasPrefix(fn, "main.stepSpans"):
			return tracingBucket
		case strings.HasPrefix(fn, "main.(*rowSource)"), strings.HasPrefix(fn, "main.(*job)"):
			return "payload"
		}
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, modulePath) {
			continue
		}
		if l, ok := packageLayer[strings.TrimPrefix(pkg, modulePath)]; ok {
			return l
		}
	}
	if len(stack) > 0 && (funcPackage(stack[0]) == "runtime" || !strings.Contains(stack[0], ".")) {
		return "runtime"
	}
	return ""
}
