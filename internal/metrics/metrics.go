// Package metrics projects the engine's structured event stream
// (internal/eventlog) into the views the paper's analysis reads: task and
// stage spans, and the Figure-7 per-executor timeline with executor starts
// and the segue instant. Every view is a function of []eventlog.Event
// filtered by App, so a saved event log renders exactly like a live run.
//
// BridgeSpans is the one live projection: a bus subscriber that records an
// app's engine events as telemetry spans and marks, for runs that export a
// telemetry report.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/telemetry"
)

// markNames are the engine's instant events and the telemetry mark each
// one becomes.
var markNames = map[eventlog.Type]string{
	eventlog.Segue:            "segue_commence",
	eventlog.VMRequest:        "vm_requested",
	eventlog.VMReady:          "vm_ready",
	eventlog.StageResubmitted: "stage_resubmitted",
	eventlog.TaskSpeculated:   "task_speculated",
}

// isEngineEvent reports whether t is one of the event types the engine
// and its backends emit for an application (the cloud provider's
// vm_request/vm_ready carry no App and are filtered out by app).
func isEngineEvent(t eventlog.Type) bool {
	switch t {
	case eventlog.JobStart, eventlog.JobEnd, eventlog.StageStart, eventlog.StageEnd,
		eventlog.TaskStart, eventlog.TaskEnd, eventlog.TaskFailed,
		eventlog.ExecutorAdd, eventlog.ExecutorDrain, eventlog.ExecutorRemove:
		return true
	}
	_, ok := markNames[t]
	return ok
}

// offset is an event's instant as an offset from the bus origin.
func offset(e eventlog.Event) time.Duration { return time.Duration(e.TS) * time.Microsecond }

// Span is one task execution on one executor, as offsets from the bus
// origin. Open marks a task that started but never finished (e.g. its
// Lambda drained mid-run); its End is clamped to the app's last engine
// event.
type Span struct {
	Exec     string
	ExecKind string
	Stage    int
	Task     int
	Start    time.Duration
	End      time.Duration
	Open     bool
}

type taskKey struct {
	exec  string
	stage int
	task  int
}

// TaskSpans pairs app's task_start events with their task_end or
// task_failed, ordered by start time then executor. Tasks with a
// task_start but no matching end are emitted as open spans, so
// drained-Lambda tasks still render.
func TaskSpans(events []eventlog.Event, app string) []Span {
	var (
		spans []Span
		end   time.Duration
		open  = map[taskKey]int{}
	)
	for _, e := range events {
		if e.App != app || !isEngineEvent(e.Type) {
			continue
		}
		end = max(end, offset(e))
		k := taskKey{e.Exec, e.Stage, e.Task}
		switch e.Type {
		case eventlog.TaskStart:
			open[k] = len(spans)
			spans = append(spans, Span{
				Exec: e.Exec, ExecKind: e.Kind, Stage: e.Stage, Task: e.Task,
				Start: offset(e), Open: true,
			})
		case eventlog.TaskEnd, eventlog.TaskFailed:
			if i, ok := open[k]; ok {
				spans[i].End, spans[i].Open = offset(e), false
				delete(open, k)
			}
		}
	}
	for i := range spans {
		if spans[i].Open {
			spans[i].End = end
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Exec < spans[j].Exec
	})
	return spans
}

// StageSpan is one stage's (start, end) interval, as offsets from the bus
// origin.
type StageSpan struct {
	Stage int
	Start time.Duration
	End   time.Duration
}

// StageSpans pairs app's stage_start and stage_end events, ordered by
// start time. Stages that never ended are left out.
func StageSpans(events []eventlog.Event, app string) []StageSpan {
	var (
		out   []StageSpan
		start = map[int]time.Duration{}
	)
	for _, e := range events {
		if e.App != app {
			continue
		}
		switch e.Type {
		case eventlog.StageStart:
			start[e.Stage] = offset(e)
		case eventlog.StageEnd:
			if s, ok := start[e.Stage]; ok {
				out = append(out, StageSpan{Stage: e.Stage, Start: s, End: offset(e)})
				delete(start, e.Stage)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// RenderTimeline draws an ASCII per-executor timeline of app's task
// activity (Figure 7 style): one row per executor, '#' where a task is
// running, '|' at segue commencement, executor rows ordered by
// registration. A header tick row marks segue ('S') and VM-ready ('V')
// columns unconditionally, so those instants stay visible even when every
// executor row is dense with task activity.
func RenderTimeline(events []eventlog.Event, app string, width int) string {
	if width <= 10 {
		width = 80
	}
	spans := TaskSpans(events, app)
	if len(spans) == 0 {
		return "(no task activity)\n"
	}
	var total time.Duration
	for _, s := range spans {
		total = max(total, s.End)
	}
	if total <= 0 {
		return "(zero-length timeline)\n"
	}
	col := func(t time.Duration) int {
		c := int(float64(t) / float64(total) * float64(width-1))
		return min(max(c, 0), width-1)
	}

	var execs []string
	kinds := map[string]string{}
	rows := map[string][]byte{}
	tick := []byte(strings.Repeat(" ", width))
	var segues, ready []int
	for _, e := range events {
		if e.App != app {
			continue
		}
		switch e.Type {
		case eventlog.ExecutorAdd:
			if _, ok := kinds[e.Exec]; !ok {
				kinds[e.Exec] = e.Kind
				execs = append(execs, e.Exec)
				rows[e.Exec] = []byte(strings.Repeat(".", width))
			}
		case eventlog.Segue:
			segues = append(segues, col(offset(e)))
		case eventlog.VMReady:
			ready = append(ready, col(offset(e)))
		}
	}
	for _, s := range spans {
		if row, ok := rows[s.Exec]; ok {
			for i := col(s.Start); i <= col(s.End); i++ {
				row[i] = '#'
			}
		}
	}
	for _, c := range segues {
		tick[c] = 'S'
		for _, row := range rows {
			if row[c] == '.' {
				row[c] = '|'
			}
		}
	}
	for _, c := range ready {
		if tick[c] == ' ' {
			tick[c] = 'V'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline 0s .. %.1fs  ('#'=task running, '|'=segue; header: S=segue, V=vm-ready)\n", total.Seconds())
	fmt.Fprintf(&b, "%-22s %s\n", "", tick)
	for _, id := range execs {
		fmt.Fprintf(&b, "%-22s %s\n", id+" ["+kinds[id]+"]", rows[id])
	}
	return b.String()
}

// spanKey identifies one open telemetry span: its component and name,
// the job name or executor it belongs to, and its stage and task.
type spanKey struct {
	component, name string
	id              string
	stage, task     int
}

// BridgeSpans subscribes to bus and records app's engine events on hub's
// tracer as they are emitted: job, stage and task runs, executor
// lifetimes and drains as spans, and segue, VM request/ready, stage
// resubmission and speculation as "timeline" marks. Attach it before the
// run starts, and only where a telemetry report with spans is exported;
// call detach when the run ends.
func BridgeSpans(bus *eventlog.Bus, hub *telemetry.Hub, app string) (detach func()) {
	tr := hub.Tracer()
	origin := bus.Origin()
	open := map[spanKey]*telemetry.Span{}
	start := func(k spanKey, at time.Time, attrs ...telemetry.Label) {
		open[k] = tr.StartSpanAt(at, k.component, k.name, attrs...)
	}
	end := func(k spanKey, at time.Time) {
		if s, ok := open[k]; ok {
			s.EndAt(at)
			delete(open, k)
		}
	}
	return bus.Subscribe(func(e eventlog.Event) {
		if e.App != app {
			return
		}
		at := origin.Add(offset(e))
		stage, task := strconv.Itoa(e.Stage), strconv.Itoa(e.Task)
		job := spanKey{component: "job", name: "run", id: e.Note}
		stg := spanKey{component: "stage", name: "run", stage: e.Stage}
		tsk := spanKey{"task", "run", e.Exec, e.Stage, e.Task}
		life := spanKey{component: "executor", name: "lifetime", id: e.Exec}
		drain := spanKey{component: "executor", name: "drain", id: e.Exec}
		switch e.Type {
		case eventlog.JobStart:
			start(job, at, telemetry.L("job", e.Note))
		case eventlog.JobEnd:
			end(job, at)
		case eventlog.StageStart:
			start(stg, at, telemetry.L("stage", stage))
		case eventlog.StageEnd:
			end(stg, at)
		case eventlog.TaskStart:
			start(tsk, at, telemetry.L("exec", e.Exec), telemetry.L("kind", e.Kind),
				telemetry.L("stage", stage), telemetry.L("task", task))
		case eventlog.TaskEnd, eventlog.TaskFailed:
			end(tsk, at)
		case eventlog.ExecutorAdd:
			start(life, at, telemetry.L("exec", e.Exec), telemetry.L("kind", e.Kind))
		case eventlog.ExecutorDrain:
			start(drain, at, telemetry.L("exec", e.Exec), telemetry.L("kind", e.Kind))
		case eventlog.ExecutorRemove:
			end(drain, at)
			end(life, at)
		default:
			name, ok := markNames[e.Type]
			if !ok {
				return
			}
			var attrs []telemetry.Label
			if e.Exec != "" {
				attrs = append(attrs, telemetry.L("exec", e.Exec))
			}
			if e.Stage >= 0 {
				attrs = append(attrs, telemetry.L("stage", stage))
			}
			if e.Task >= 0 {
				attrs = append(attrs, telemetry.L("task", task))
			}
			tr.MarkAt(at, "timeline", name, attrs...)
		}
	})
}
