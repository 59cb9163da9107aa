package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// heapSampler tracks the host heap high-water: the largest heap goal the
// garbage collector set (the heap size it lets the program reach before
// the next cycle), read from runtime/metrics at the end of every GC
// cycle. It hooks the cycles with a finalizer re-armed each time, so it
// adds no polling goroutine whose wake-ups would perturb the drive.
type heapSampler struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

const heapGoal = "/gc/heap/goal:bytes"

// gcSentinel is big enough to get its own heap object, so its finalizer
// runs after the first GC cycle that finds it unreachable.
type gcSentinel struct{ _ [64]byte }

func heapGoalBytes() uint64 {
	s := []metrics.Sample{{Name: heapGoal}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.reset()
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if !h.stopped.Load() {
			h.sample()
			h.arm()
		}
	})
}

func (h *heapSampler) sample() {
	b := heapGoalBytes()
	for {
		p := h.peak.Load()
		if b <= p || h.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// reset restarts the high-water from the current heap goal.
func (h *heapSampler) reset() { h.peak.Store(heapGoalBytes()) }

// peakMB samples once more and returns the high-water since reset.
func (h *heapSampler) peakMB() float64 {
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// close stops re-arming the GC hook.
func (h *heapSampler) close() { h.stopped.Store(true) }

// rtCounters are the runtime/metrics counters the benchmark differences
// across a drive.
type rtCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, busyCPU                     float64
}

func readRuntime() rtCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return rtCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		busyCPU:      s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		busyCPU:      a.busyCPU - b.busyCPU,
	}
}
