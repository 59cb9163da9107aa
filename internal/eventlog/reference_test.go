package eventlog

// The encoding/json writers that the hand-written ones in eventlog.go and
// trace.go replaced, kept verbatim (renamed with a Ref/ref prefix, with
// the one change to clamp order noted in refBuildTrace) as the slow
// reference the differential and fuzz tests hold the fast writers to, in
// the way simclock's heapq.go serves the timer wheel. The two entry
// points are exported for FuzzOutputEncoders, which lives in the
// external test package because it also drives attrib.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RefWriteJSONL serialises events one per line.
func RefWriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refTraceEvent is one entry of the Chrome trace-event format (the JSON
// chrome://tracing and Perfetto load). Every event carries the four fields
// Perfetto requires — ph, ts, pid, tid — unconditionally.
type refTraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	CName string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// refTraceFile is the top-level Chrome trace JSON object.
type refTraceFile struct {
	TraceEvents     []refTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// ChromeTrace converts an event stream to Chrome trace-event JSON: one
// process (pid) per app, one track (tid) per executor plus a "driver"
// track with job/stage slices, task slices colored by backend, and instant
// markers for segue, VM and Lambda lifecycle events. Open intervals (a
// task on a Lambda that drained mid-run, a stage cut short) are clamped to
// the last timestamp in the log so they still render.
func RefChromeTrace(events []Event) ([]byte, error) {
	tf := refBuildTrace(events)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BuildTrace assembles the refTraceFile (exposed separately so tests and the
// history server can inspect the structured form).
func refBuildTrace(events []Event) *refTraceFile {
	tf := &refTraceFile{TraceEvents: []refTraceEvent{}, DisplayTimeUnit: "ms"}

	var end int64
	for _, e := range events {
		if e.TS > end {
			end = e.TS
		}
	}

	pids := map[string]int{}
	pidOrder := []string{}
	pidOf := func(app string) int {
		if p, ok := pids[app]; ok {
			return p
		}
		p := len(pids) + 1
		pids[app] = p
		pidOrder = append(pidOrder, app)
		return p
	}
	type execKey struct {
		app  string
		exec string
	}
	tids := map[execKey]int{}
	tidKinds := map[execKey]string{}
	nextTID := map[string]int{}
	tidOf := func(app, exec, kind string) int {
		k := execKey{app, exec}
		if t, ok := tids[k]; ok {
			return t
		}
		nextTID[app]++
		tids[k] = nextTID[app]
		if kind != "" {
			tidKinds[k] = kind
		}
		return tids[k]
	}

	type openKey struct {
		app   string
		exec  string
		stage int
		task  int
	}
	openTasks := map[openKey]Event{}
	openStages := map[openKey]Event{}
	openJobs := map[openKey]Event{}
	openExecs := map[execKey]Event{}

	var slices, instants []refTraceEvent

	closeSlice := func(start Event, ts int64, name, cat string, pid, tid int, cname string, args map[string]any) {
		dur := ts - start.TS
		if dur < 1 {
			dur = 1 // zero-width slices vanish in the UI
		}
		slices = append(slices, refTraceEvent{
			Name: name, Cat: cat, Ph: "X", TS: start.TS, Dur: dur,
			PID: pid, TID: tid, CName: cname, Args: args,
		})
	}

	instant := func(e Event, name string, pid, tid int, scope string, args map[string]any) {
		instants = append(instants, refTraceEvent{
			Name: name, Cat: string(e.Type), Ph: "i", TS: e.TS,
			PID: pid, TID: tid, Scope: scope, Args: args,
		})
	}

	for _, e := range events {
		switch e.Type {
		case JobStart, ClusterAdmit:
			openJobs[openKey{app: e.App, task: -1, stage: -1}] = e
			pidOf(e.App)
		case JobEnd, ClusterFinish, ClusterFail:
			k := openKey{app: e.App, task: -1, stage: -1}
			if s, ok := openJobs[k]; ok {
				delete(openJobs, k)
				closeSlice(s, e.TS, "job "+s.Note, "job", pidOf(e.App), driverTID, "", map[string]any{"job": s.Note})
			}
		case StageStart:
			openStages[openKey{app: e.App, stage: e.Stage, task: -1}] = e
		case StageEnd:
			k := openKey{app: e.App, stage: e.Stage, task: -1}
			if s, ok := openStages[k]; ok {
				delete(openStages, k)
				closeSlice(s, e.TS, fmt.Sprintf("stage %d", e.Stage), "stage",
					pidOf(e.App), driverTID, "", map[string]any{"stage": e.Stage})
			}
		case TaskStart:
			openTasks[openKey{e.App, e.Exec, e.Stage, e.Task}] = e
		case TaskEnd, TaskFailed:
			k := openKey{e.App, e.Exec, e.Stage, e.Task}
			if s, ok := openTasks[k]; ok {
				delete(openTasks, k)
				cname := cnameVM
				if s.Kind == "lambda" {
					cname = cnameLambda
				}
				if e.Type == TaskFailed {
					cname = "terrible"
				}
				closeSlice(s, e.TS, fmt.Sprintf("s%d/t%d", e.Stage, e.Task), "task",
					pidOf(e.App), tidOf(e.App, e.Exec, s.Kind), cname,
					map[string]any{"stage": e.Stage, "task": e.Task, "kind": s.Kind})
			}
		case ExecutorAdd:
			openExecs[execKey{e.App, e.Exec}] = e
			tidOf(e.App, e.Exec, e.Kind)
		case ExecutorRemove:
			k := execKey{e.App, e.Exec}
			if s, ok := openExecs[k]; ok {
				delete(openExecs, k)
				closeSlice(s, e.TS, "executor "+e.Exec, "executor",
					pidOf(e.App), tidOf(e.App, e.Exec, s.Kind), "grey",
					map[string]any{"exec": e.Exec, "kind": s.Kind, "reason": e.Note})
			}
		case CostPick:
			// Allocation decisions get their own color so the chosen R
			// stands out on the driver track next to the arrival marker.
			instants = append(instants, refTraceEvent{
				Name: fmt.Sprintf("cost_pick R=%d", e.Cores), Cat: string(e.Type),
				Ph: "i", TS: e.TS, PID: pidOf(e.App), TID: driverTID,
				Scope: "p", CName: cnameCostPick, Args: refArgsFor(e),
			})
		case ShardAssign, ShardSteal:
			// Shard placement decisions stay on the app's driver track —
			// Exec carries the tenant id, not an executor, so never open a
			// thread for it.
			instant(e, string(e.Type), pidOf(e.App), driverTID, "p", refArgsFor(e))
		case TenantReport:
			// Per-tenant rollups are control-plane scope: no app process.
			instant(e, string(e.Type), pidOf(e.App), driverTID, "g", refArgsFor(e))
		case Segue, ExecutorDrain, SegueCoreGrant, SLOViolate, ClusterArrive,
			StageResubmitted, TaskSpeculated, AutoscaleOrder,
			ClusterShed, ClusterDelay:
			tid := driverTID
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, e.Kind)
			}
			instant(e, string(e.Type), pidOf(e.App), tid, "p", refArgsFor(e))
		case VMRequest, VMReady, LambdaInvoke, LambdaReady, LambdaRelease,
			CoreLease, CoreRelease, VMReleaseIdle, LambdaWarmHit, WarmpoolResize:
			// Control-plane events are global: they have no app process.
			instant(e, string(e.Type), pidOf(e.App), driverTID, "g", refArgsFor(e))
		case TmpCacheHit, TmpCacheEvict:
			// /tmp cache traffic renders like shuffle I/O, on the
			// environment's executor track when one is known.
			tid := driverTID
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, "")
			}
			instant(e, fmt.Sprintf("%s %dB", e.Type, e.Bytes), pidOf(e.App), tid, "t", refArgsFor(e))
		case ShuffleRead, ShuffleWrite, HDFSRead, HDFSWrite:
			tid := driverTID
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, "")
			}
			instant(e, fmt.Sprintf("%s %dB", e.Type, e.Bytes), pidOf(e.App), tid, "t", refArgsFor(e))
		}
	}

	// The one departure from the original writer: it ranged over the
	// still-open maps directly, so when two clamped intervals tied on
	// (ts, pid, tid, dur), or a clamp was the first sight of an app or
	// executor, the output followed Go's randomised map order. Both
	// writers now clamp in key order, one of the orders the original
	// could produce.
	openKeys := func(m map[openKey]Event) []openKey {
		keys := make([]openKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.app != b.app {
				return a.app < b.app
			}
			if a.exec != b.exec {
				return a.exec < b.exec
			}
			if a.stage != b.stage {
				return a.stage < b.stage
			}
			return a.task < b.task
		})
		return keys
	}
	execKeys := func(m map[execKey]Event) []execKey {
		keys := make([]execKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].app != keys[j].app {
				return keys[i].app < keys[j].app
			}
			return keys[i].exec < keys[j].exec
		})
		return keys
	}

	// Clamp whatever is still open to the end of the log.
	for _, k := range openKeys(openTasks) {
		s := openTasks[k]
		cname := cnameVM
		if s.Kind == "lambda" {
			cname = cnameLambda
		}
		closeSlice(s, end, fmt.Sprintf("s%d/t%d (open)", k.stage, k.task), "task",
			pidOf(k.app), tidOf(k.app, k.exec, s.Kind), cname,
			map[string]any{"stage": k.stage, "task": k.task, "kind": s.Kind, "open": true})
	}
	for _, k := range openKeys(openStages) {
		s := openStages[k]
		closeSlice(s, end, fmt.Sprintf("stage %d (open)", k.stage), "stage",
			pidOf(k.app), driverTID, "", map[string]any{"stage": k.stage, "open": true})
	}
	for _, k := range openKeys(openJobs) {
		s := openJobs[k]
		closeSlice(s, end, "job "+s.Note+" (open)", "job", pidOf(k.app), driverTID, "", nil)
	}
	for _, k := range execKeys(openExecs) {
		s := openExecs[k]
		closeSlice(s, end, "executor "+k.exec+" (open)", "executor",
			pidOf(k.app), tidOf(k.app, k.exec, s.Kind), "grey", nil)
	}

	// Metadata: process and thread names, in deterministic (pid, tid) order.
	var meta []refTraceEvent
	for _, app := range pidOrder {
		name := app
		if name == "" {
			name = "cloud"
		}
		meta = append(meta, refTraceEvent{
			Name: "process_name", Ph: "M", TS: 0, PID: pids[app], TID: 0,
			Args: map[string]any{"name": name},
		})
		meta = append(meta, refTraceEvent{
			Name: "thread_name", Ph: "M", TS: 0, PID: pids[app], TID: driverTID,
			Args: map[string]any{"name": "driver"},
		})
	}
	type tidEntry struct {
		key execKey
		tid int
	}
	var tes []tidEntry
	for k, t := range tids {
		tes = append(tes, tidEntry{k, t})
	}
	sort.Slice(tes, func(i, j int) bool {
		if pids[tes[i].key.app] != pids[tes[j].key.app] {
			return pids[tes[i].key.app] < pids[tes[j].key.app]
		}
		return tes[i].tid < tes[j].tid
	})
	for _, te := range tes {
		label := te.key.exec
		if kind := tidKinds[te.key]; kind != "" {
			label += " [" + kind + "]"
		}
		meta = append(meta, refTraceEvent{
			Name: "thread_name", Ph: "M", TS: 0, PID: pids[te.key.app], TID: te.tid,
			Args: map[string]any{"name": label},
		})
	}

	// Slices sorted by (ts, pid, tid) keep Catapult's importer happy;
	// instants ride along after slices at equal timestamps.
	sort.SliceStable(slices, func(i, j int) bool { return refTraceLess(slices[i], slices[j]) })
	sort.SliceStable(instants, func(i, j int) bool { return refTraceLess(instants[i], instants[j]) })

	tf.TraceEvents = append(tf.TraceEvents, meta...)
	tf.TraceEvents = append(tf.TraceEvents, slices...)
	tf.TraceEvents = append(tf.TraceEvents, instants...)
	return tf
}

func refTraceLess(a, b refTraceEvent) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.PID != b.PID {
		return a.PID < b.PID
	}
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	return a.Dur > b.Dur // enclosing slice first
}

func refArgsFor(e Event) map[string]any {
	args := map[string]any{}
	if e.Exec != "" {
		args["exec"] = e.Exec
	}
	if e.Kind != "" {
		args["kind"] = e.Kind
	}
	if e.Stage >= 0 {
		args["stage"] = e.Stage
	}
	if e.Task >= 0 {
		args["task"] = e.Task
	}
	if e.Cores != 0 {
		args["cores"] = e.Cores
	}
	if e.Bytes != 0 {
		args["bytes"] = e.Bytes
	}
	if e.Note != "" {
		args["note"] = e.Note
	}
	if len(args) == 0 {
		return nil
	}
	return args
}
