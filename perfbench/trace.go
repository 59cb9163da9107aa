package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// spanKind names what a span surrounds: a call from the benchmark into
// one layer's public function, or a payload row function.
type spanKind uint8

const (
	spanStep     spanKind = iota // simclock.Clock.Step
	spanPump                     // cluster.Scheduler.Pump
	spanStart                    // cluster.Scheduler.Start
	spanFinalize                 // cluster.Scheduler.Finalize
	spanNew                      // cluster.New / shard.New
	spanShardRun                 // shard.Manager.Run
	spanMerge                    // shard.Manager.Events (k-way merge)
	spanBaseline                 // cluster.Baseline
	spanGenerate                 // the workload's input generator
	spanParse                    // tracereplay.Parse
	spanValidate                 // tracereplay.Validate
	spanEventlog                 // eventlog.WriteJSONL
	spanTrace                    // eventlog.ChromeTrace
	spanAttrib                   // attrib.Analyze + JSON
	spanReport                   // report JSON
	spanPayload                  // a row function
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"simclock.step", "cluster.pump", "cluster.start", "cluster.finalize",
	"cluster.new", "shard.run", "shard.merge", "setup.baseline",
	"setup.generate", "tracereplay.parse", "tracereplay.validate",
	"observability.eventlog", "observability.trace", "observability.attrib",
	"observability.report", "payload",
}

// write prints the span table: calls, distinct jobs, total and self
// seconds per kind.
func (s *spanTotals) write(w io.Writer) {
	fmt.Fprintf(w, "%-24s %9s %6s %10s %10s\n", "span", "calls", "jobs", "total_s", "self_s")
	for k := spanKind(0); k < numSpanKinds; k++ {
		if s.calls[k] > 0 {
			fmt.Fprintf(w, "%-24s %9d %6d %10.4f %10.4f\n", spanNames[k], s.calls[k], len(s.jobs[k]),
				s.total[k].Seconds(), s.self[k].Seconds())
		}
	}
}

// span is one timed call. Times are nanoseconds since the tracer began;
// job is the simulated job's index, or -1 where none exists; parent is
// the index of the innermost span enclosing this one (-1 at the root),
// filled in by link once the run is over.
type span struct {
	start, end int64
	parent     int32
	job        int32
	kind       spanKind
}

// tracer keeps spans in memory for one traced run. A nil *tracer is off:
// every method is a no-op, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	// flowsMax is the most netsim flows a row function saw active.
	flowsMax int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(k spanKind, job int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: -1, job: int32(job), kind: k})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
}

func (t *tracer) sampleFlows(n int) {
	if n > t.flowsMax {
		t.flowsMax = n
	}
}

// ObserveStep implements simclock.StepObserver: the clock reports each
// fired step's wall duration as it returns, so the span ends now. Steps
// are forwarded to next (the perfstat collector the layers attached).
type stepSpans struct {
	t    *tracer
	next interface{ ObserveStep(time.Duration) }
}

func (s stepSpans) ObserveStep(wall time.Duration) {
	end := s.t.now()
	s.t.spans = append(s.t.spans, span{start: end - int64(wall), end: end, parent: -1, job: -1, kind: spanStep})
	if s.next != nil {
		s.next.ObserveStep(wall)
	}
}

// link sets every span's parent to the innermost span whose interval
// contains it. The simulation runs one goroutine at a time, so spans
// recorded on different goroutines still nest in wall time.
func (t *tracer) link() {
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := t.spans[order[a]], t.spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var stack []int
	for _, i := range order {
		s := &t.spans[i]
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.parent = int32(stack[len(stack)-1])
		}
		stack = append(stack, i)
	}
}

// spanTotals is the per-kind sum of span durations, self time (each span
// minus its children), call count and the set of job ids spanned.
type spanTotals struct {
	total, self [numSpanKinds]time.Duration
	calls       [numSpanKinds]int
	jobs        [numSpanKinds]map[int32]bool
}

func (t *tracer) totals() spanTotals {
	t.link()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out spanTotals
	for i, s := range t.spans {
		out.total[s.kind] += time.Duration(s.end - s.start)
		out.self[s.kind] += time.Duration(s.end - s.start - child[i])
		out.calls[s.kind]++
		if s.job >= 0 {
			if out.jobs[s.kind] == nil {
				out.jobs[s.kind] = map[int32]bool{}
			}
			out.jobs[s.kind][s.job] = true
		}
	}
	return out
}
