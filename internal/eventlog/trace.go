package eventlog

import (
	"cmp"
	"slices"
	"strconv"
)

// TraceEvent is one entry of the Chrome trace-event format (the JSON
// chrome://tracing and Perfetto load), in the structured form BuildTrace
// returns. Every event carries the four fields Perfetto requires — ph,
// ts, pid, tid — unconditionally. ChromeTrace writes the keys name, cat,
// ph, ts, dur, pid, tid, s (Scope), cname and args in that order,
// leaving out an empty cat, s or cname, a zero dur and args with no keys.
type TraceEvent struct {
	Name  string
	Cat   string
	Ph    string
	TS    int64
	Dur   int64
	PID   int
	TID   int
	Scope string
	CName string
	Args  TraceArgs
}

// TraceFile is the top-level Chrome trace JSON object.
type TraceFile struct {
	TraceEvents     []TraceEvent
	DisplayTimeUnit string
}

// ArgKey names one key of a trace event's args object. The constants are
// declared in key order, which is the order the keys are written in.
type ArgKey uint16

const (
	ArgBytes ArgKey = 1 << iota
	ArgCores
	ArgExec
	ArgJob
	ArgKind
	ArgName
	ArgNote
	ArgOpen
	ArgReason
	ArgStage
	ArgTask
)

// TraceArgs is a trace event's args object. Set records which keys are
// present, so a zero value ("stage": 0, an empty "job") is still written
// when present; "open" has no field, its value is always true.
type TraceArgs struct {
	Set                                 ArgKey
	Bytes                               int64
	Cores, Stage, Task                  int
	Exec, Job, Kind, Name, Note, Reason string
}

// Has reports whether key k is present.
func (a *TraceArgs) Has(k ArgKey) bool { return a.Set&k != 0 }

// Reserved Catapult color names used to tell the substrates apart: VM task
// slices render green, Lambda slices orange, and cost-manager allocation
// decisions light blue (see OBSERVABILITY.md).
const (
	cnameVM       = "thread_state_running"
	cnameLambda   = "thread_state_iowait"
	cnameCostPick = "vsync_highlight_color"
)

// driverTID is the per-process track carrying job and stage slices; each
// executor gets its own tid from 1 up, in first-appearance order.
const driverTID = 0

// ChromeTrace converts an event stream to Chrome trace-event JSON: one
// process (pid) per app, one track (tid) per executor plus a "driver"
// track with job/stage slices, task slices colored by backend, and instant
// markers for segue, VM and Lambda lifecycle events. Open intervals (a
// task on a Lambda that drained mid-run, a stage cut short) are clamped to
// the last timestamp in the log, in key order (app, executor, stage,
// task), so they still render. The document is indented by one space
// and ends in a newline.
func ChromeTrace(events []Event) ([]byte, error) {
	t := buildTrace(events)
	return t.appendJSON(make([]byte, 0, 256*len(t.recs)+64)), nil
}

// BuildTrace assembles the TraceFile (exposed separately so tests and the
// history server can inspect the structured form).
func BuildTrace(events []Event) *TraceFile {
	t := buildTrace(events)
	tf := &TraceFile{TraceEvents: make([]TraceEvent, 0, len(t.recs)), DisplayTimeUnit: "ms"}
	for i := range t.recs {
		te := t.event(&t.recs[i])
		te.Name = string(t.appendName(nil, &t.recs[i]))
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	return tf
}

// traceForm says how a record's name, category, colour and args derive
// from the events behind it.
type traceForm uint8

const (
	formProcess traceForm = iota // process_name metadata; apps[pid-1] names it
	formDriver                   // the driver track's thread_name
	formThread                   // an executor's thread_name; ev indexes threads

	// Slices. ev is the opening event, end the closing one.
	formJob
	formStage
	formTask
	formExec

	// Slices still open at the end of the log (ev opened them).
	formJobOpen
	formStageOpen
	formTaskOpen
	formExecOpen

	// Instants of event ev.
	formInstantP // named by type, process scope
	formInstantG // named by type, global scope
	formCostPick // "cost_pick R=<cores>", process scope
	formBytes    // "<type> <bytes>B", thread scope
)

// traceRec is one trace event before formatting: what the output is
// sorted by, plus indices of the events its text comes from. Names and
// args are produced only when the record is written.
type traceRec struct {
	ts, dur  int64
	pid, tid int32
	ev, end  int32
	form     traceForm
}

// thread is an executor track. pid and label are set once the track
// list is final.
type thread struct {
	app, exec, kind string
	pid, tid        int32
	label           string
}

type execKey struct {
	app  string
	exec string
}

type openKey struct {
	app   string
	exec  string
	stage int
	task  int
}

// trace is a built trace: records in output order (metadata, then
// slices, then instants) over the events they came from.
type trace struct {
	events  []Event
	apps    []string // by pid-1
	threads []thread // in (pid, tid) order
	recs    []traceRec
}

func buildTrace(events []Event) *trace {
	t := &trace{events: events}

	var end int64
	for i := range events {
		if events[i].TS > end {
			end = events[i].TS
		}
	}

	pids := map[string]int32{}
	pidOf := func(app string) int32 {
		if p, ok := pids[app]; ok {
			return p
		}
		t.apps = append(t.apps, app)
		p := int32(len(t.apps))
		pids[app] = p
		return p
	}
	tids := map[execKey]int32{} // index into t.threads
	nextTID := map[string]int32{}
	tidOf := func(app, exec, kind string) int32 {
		k := execKey{app, exec}
		if i, ok := tids[k]; ok {
			return t.threads[i].tid
		}
		nextTID[app]++
		tids[k] = int32(len(t.threads))
		t.threads = append(t.threads, thread{app: app, exec: exec, kind: kind, tid: nextTID[app]})
		return nextTID[app]
	}

	openTasks := map[openKey]int32{}
	openStages := map[openKey]int32{}
	openJobs := map[openKey]int32{}
	openExecs := map[execKey]int32{}

	var spans, marks []traceRec
	closeSlice := func(form traceForm, start, stop int32, ts int64, pid, tid int32) {
		dur := ts - events[start].TS
		if dur < 1 {
			dur = 1 // zero-width slices vanish in the UI
		}
		spans = append(spans, traceRec{ts: events[start].TS, dur: dur, pid: pid, tid: tid, ev: start, end: stop, form: form})
	}
	instant := func(form traceForm, i int32, pid, tid int32) {
		marks = append(marks, traceRec{ts: events[i].TS, pid: pid, tid: tid, ev: i, end: -1, form: form})
	}

	for n := range events {
		i, e := int32(n), &events[n]
		switch e.Type {
		case JobStart, ClusterAdmit:
			openJobs[openKey{app: e.App, task: -1, stage: -1}] = i
			pidOf(e.App)
		case JobEnd, ClusterFinish, ClusterFail:
			k := openKey{app: e.App, task: -1, stage: -1}
			if s, ok := openJobs[k]; ok {
				delete(openJobs, k)
				closeSlice(formJob, s, i, e.TS, pidOf(e.App), driverTID)
			}
		case StageStart:
			openStages[openKey{app: e.App, stage: e.Stage, task: -1}] = i
		case StageEnd:
			k := openKey{app: e.App, stage: e.Stage, task: -1}
			if s, ok := openStages[k]; ok {
				delete(openStages, k)
				closeSlice(formStage, s, i, e.TS, pidOf(e.App), driverTID)
			}
		case TaskStart:
			openTasks[openKey{e.App, e.Exec, e.Stage, e.Task}] = i
		case TaskEnd, TaskFailed:
			k := openKey{e.App, e.Exec, e.Stage, e.Task}
			if s, ok := openTasks[k]; ok {
				delete(openTasks, k)
				closeSlice(formTask, s, i, e.TS, pidOf(e.App), tidOf(e.App, e.Exec, events[s].Kind))
			}
		case ExecutorAdd:
			openExecs[execKey{e.App, e.Exec}] = i
			tidOf(e.App, e.Exec, e.Kind)
		case ExecutorRemove:
			k := execKey{e.App, e.Exec}
			if s, ok := openExecs[k]; ok {
				delete(openExecs, k)
				closeSlice(formExec, s, i, e.TS, pidOf(e.App), tidOf(e.App, e.Exec, events[s].Kind))
			}
		case CostPick:
			// Allocation decisions get their own color so the chosen R
			// stands out on the driver track next to the arrival marker.
			instant(formCostPick, i, pidOf(e.App), driverTID)
		case ShardAssign, ShardSteal:
			// Shard placement decisions stay on the app's driver track —
			// Exec carries the tenant id, not an executor, so never open a
			// thread for it.
			instant(formInstantP, i, pidOf(e.App), driverTID)
		case TenantReport:
			// Per-tenant rollups are control-plane scope: no app process.
			instant(formInstantG, i, pidOf(e.App), driverTID)
		case Segue, ExecutorDrain, SegueCoreGrant, SLOViolate, ClusterArrive,
			StageResubmitted, TaskSpeculated, AutoscaleOrder,
			ClusterShed, ClusterDelay:
			tid := int32(driverTID)
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, e.Kind)
			}
			instant(formInstantP, i, pidOf(e.App), tid)
		case VMRequest, VMReady, LambdaInvoke, LambdaReady, LambdaRelease,
			CoreLease, CoreRelease, VMReleaseIdle, LambdaWarmHit, WarmpoolResize:
			// Control-plane events are global: they have no app process.
			instant(formInstantG, i, pidOf(e.App), driverTID)
		case TmpCacheHit, TmpCacheEvict, ShuffleRead, ShuffleWrite, HDFSRead, HDFSWrite:
			// Shuffle, HDFS and /tmp cache traffic render on the
			// executor's track when one is known.
			tid := int32(driverTID)
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, "")
			}
			instant(formBytes, i, pidOf(e.App), tid)
		}
	}

	// Clamp whatever is still open to the end of the log.
	for _, k := range sortedKeys(openTasks, cmpOpenKey) {
		s := openTasks[k]
		closeSlice(formTaskOpen, s, -1, end, pidOf(k.app), tidOf(k.app, k.exec, events[s].Kind))
	}
	for _, k := range sortedKeys(openStages, cmpOpenKey) {
		closeSlice(formStageOpen, openStages[k], -1, end, pidOf(k.app), driverTID)
	}
	for _, k := range sortedKeys(openJobs, cmpOpenKey) {
		closeSlice(formJobOpen, openJobs[k], -1, end, pidOf(k.app), driverTID)
	}
	for _, k := range sortedKeys(openExecs, cmpExecKey) {
		s := openExecs[k]
		closeSlice(formExecOpen, s, -1, end, pidOf(k.app), tidOf(k.app, k.exec, events[s].Kind))
	}

	// Metadata: process and thread names, in deterministic (pid, tid) order.
	t.recs = make([]traceRec, 0, 2*len(t.apps)+len(t.threads)+len(spans)+len(marks))
	for p := range t.apps {
		pid := int32(p + 1)
		t.recs = append(t.recs,
			traceRec{pid: pid, ev: -1, end: -1, form: formProcess},
			traceRec{pid: pid, tid: driverTID, ev: -1, end: -1, form: formDriver})
	}
	for i := range t.threads {
		t.threads[i].pid = pids[t.threads[i].app]
	}
	slices.SortFunc(t.threads, func(a, b thread) int {
		if c := cmp.Compare(a.pid, b.pid); c != 0 {
			return c
		}
		return cmp.Compare(a.tid, b.tid)
	})
	for i := range t.threads {
		th := &t.threads[i]
		th.label = th.exec
		if th.kind != "" {
			th.label += " [" + th.kind + "]"
		}
		t.recs = append(t.recs, traceRec{pid: th.pid, tid: th.tid, ev: int32(i), end: -1, form: formThread})
	}

	// Slices sorted by (ts, pid, tid) keep Catapult's importer happy;
	// instants ride along after slices at equal timestamps.
	slices.SortStableFunc(spans, cmpTraceRec)
	slices.SortStableFunc(marks, cmpTraceRec)
	t.recs = append(t.recs, spans...)
	t.recs = append(t.recs, marks...)
	return t
}

func cmpTraceRec(a, b traceRec) int {
	if c := cmp.Compare(a.ts, b.ts); c != 0 {
		return c
	}
	if c := cmp.Compare(a.pid, b.pid); c != 0 {
		return c
	}
	if c := cmp.Compare(a.tid, b.tid); c != 0 {
		return c
	}
	return cmp.Compare(b.dur, a.dur) // enclosing slice first
}

func cmpOpenKey(a, b openKey) int {
	if c := cmp.Compare(a.app, b.app); c != 0 {
		return c
	}
	if c := cmp.Compare(a.exec, b.exec); c != 0 {
		return c
	}
	if c := cmp.Compare(a.stage, b.stage); c != 0 {
		return c
	}
	return cmp.Compare(a.task, b.task)
}

func cmpExecKey(a, b execKey) int {
	if c := cmp.Compare(a.app, b.app); c != 0 {
		return c
	}
	return cmp.Compare(a.exec, b.exec)
}

// sortedKeys returns m's keys in cmp order, independent of map order.
func sortedKeys[K comparable](m map[K]int32, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

// event returns r's fields other than Name.
func (t *trace) event(r *traceRec) TraceEvent {
	te := TraceEvent{TS: r.ts, Dur: r.dur, PID: int(r.pid), TID: int(r.tid)}
	switch r.form {
	case formProcess:
		name := t.apps[r.pid-1]
		if name == "" {
			name = "cloud"
		}
		te.Ph, te.Args = "M", TraceArgs{Set: ArgName, Name: name}
	case formDriver:
		te.Ph, te.Args = "M", TraceArgs{Set: ArgName, Name: "driver"}
	case formThread:
		te.Ph, te.Args = "M", TraceArgs{Set: ArgName, Name: t.threads[r.ev].label}
	case formJob, formJobOpen:
		te.Ph, te.Cat = "X", "job"
		if r.form == formJob {
			te.Args = TraceArgs{Set: ArgJob, Job: t.events[r.ev].Note}
		}
	case formStage, formStageOpen:
		te.Ph, te.Cat = "X", "stage"
		te.Args = TraceArgs{Set: ArgStage, Stage: t.events[r.ev].Stage}
		if r.form == formStageOpen {
			te.Args.Set |= ArgOpen
		}
	case formTask, formTaskOpen:
		s := &t.events[r.ev]
		te.Ph, te.Cat, te.CName = "X", "task", cnameVM
		if s.Kind == "lambda" {
			te.CName = cnameLambda
		}
		te.Args = TraceArgs{Set: ArgStage | ArgTask | ArgKind, Stage: s.Stage, Task: s.Task, Kind: s.Kind}
		if r.form == formTaskOpen {
			te.Args.Set |= ArgOpen
		} else if t.events[r.end].Type == TaskFailed {
			te.CName = "terrible"
		}
	case formExec, formExecOpen:
		te.Ph, te.Cat, te.CName = "X", "executor", "grey"
		if r.form == formExec {
			e := &t.events[r.end]
			te.Args = TraceArgs{Set: ArgExec | ArgKind | ArgReason, Exec: e.Exec, Kind: t.events[r.ev].Kind, Reason: e.Note}
		}
	default: // instants
		e := &t.events[r.ev]
		te.Ph, te.Cat, te.Args = "i", string(e.Type), argsFor(e)
		switch r.form {
		case formInstantG:
			te.Scope = "g"
		case formBytes:
			te.Scope = "t"
		case formCostPick:
			te.Scope, te.CName = "p", cnameCostPick
		default:
			te.Scope = "p"
		}
	}
	return te
}

// appendName appends r's name, unescaped.
func (t *trace) appendName(dst []byte, r *traceRec) []byte {
	switch r.form {
	case formProcess:
		return append(dst, "process_name"...)
	case formDriver, formThread:
		return append(dst, "thread_name"...)
	case formInstantP, formInstantG:
		return append(dst, t.events[r.ev].Type...)
	case formCostPick:
		dst = append(dst, "cost_pick R="...)
		return strconv.AppendInt(dst, int64(t.events[r.ev].Cores), 10)
	case formBytes:
		e := &t.events[r.ev]
		dst = append(dst, e.Type...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, e.Bytes, 10)
		return append(dst, 'B')
	}
	s := &t.events[r.ev]
	switch r.form {
	case formJob, formJobOpen:
		dst = append(dst, "job "...)
		dst = append(dst, s.Note...)
	case formStage, formStageOpen:
		dst = append(dst, "stage "...)
		dst = strconv.AppendInt(dst, int64(s.Stage), 10)
	case formTask, formTaskOpen:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(s.Stage), 10)
		dst = append(dst, "/t"...)
		dst = strconv.AppendInt(dst, int64(s.Task), 10)
	case formExec, formExecOpen:
		dst = append(dst, "executor "...)
		dst = append(dst, s.Exec...)
	}
	if r.form >= formJobOpen {
		dst = append(dst, " (open)"...)
	}
	return dst
}

// appendJSON writes the trace as encoding/json's Encoder with a
// one-space indent would write the TraceFile.
func (t *trace) appendJSON(dst []byte) []byte {
	w := NewJSONWriter(" ", dst)
	w.Open('{')
	w.Key("traceEvents")
	w.Open('[')
	var name []byte
	for i := range t.recs {
		r := &t.recs[i]
		te := t.event(r)
		name = t.appendName(name[:0], r)
		w.Elem()
		w.Open('{')
		w.Key("name")
		w.Buf = appendJSONString(w.Buf, name)
		if te.Cat != "" {
			w.Key("cat")
			w.String(te.Cat)
		}
		w.Key("ph")
		w.String(te.Ph)
		w.Key("ts")
		w.Int(te.TS)
		if te.Dur != 0 {
			w.Key("dur")
			w.Int(te.Dur)
		}
		w.Key("pid")
		w.Int(int64(te.PID))
		w.Key("tid")
		w.Int(int64(te.TID))
		if te.Scope != "" {
			w.Key("s")
			w.String(te.Scope)
		}
		if te.CName != "" {
			w.Key("cname")
			w.String(te.CName)
		}
		if te.Args.Set != 0 {
			w.Key("args")
			appendTraceArgs(w, &te.Args)
		}
		w.Close('}')
	}
	w.Close(']')
	w.Key("displayTimeUnit")
	w.String("ms")
	w.Close('}')
	return append(w.Buf, '\n')
}

// appendTraceArgs writes the present keys of a in key order.
func appendTraceArgs(w *JSONWriter, a *TraceArgs) {
	w.Open('{')
	if a.Has(ArgBytes) {
		w.Key("bytes")
		w.Int(a.Bytes)
	}
	if a.Has(ArgCores) {
		w.Key("cores")
		w.Int(int64(a.Cores))
	}
	if a.Has(ArgExec) {
		w.Key("exec")
		w.String(a.Exec)
	}
	if a.Has(ArgJob) {
		w.Key("job")
		w.String(a.Job)
	}
	if a.Has(ArgKind) {
		w.Key("kind")
		w.String(a.Kind)
	}
	if a.Has(ArgName) {
		w.Key("name")
		w.String(a.Name)
	}
	if a.Has(ArgNote) {
		w.Key("note")
		w.String(a.Note)
	}
	if a.Has(ArgOpen) {
		w.Key("open")
		w.Raw("true")
	}
	if a.Has(ArgReason) {
		w.Key("reason")
		w.String(a.Reason)
	}
	if a.Has(ArgStage) {
		w.Key("stage")
		w.Int(int64(a.Stage))
	}
	if a.Has(ArgTask) {
		w.Key("task")
		w.Int(int64(a.Task))
	}
	w.Close('}')
}

// argsFor carries an instant's event fields that are set.
func argsFor(e *Event) TraceArgs {
	var a TraceArgs
	if e.Exec != "" {
		a.Set |= ArgExec
		a.Exec = e.Exec
	}
	if e.Kind != "" {
		a.Set |= ArgKind
		a.Kind = e.Kind
	}
	if e.Stage >= 0 {
		a.Set |= ArgStage
		a.Stage = e.Stage
	}
	if e.Task >= 0 {
		a.Set |= ArgTask
		a.Task = e.Task
	}
	if e.Cores != 0 {
		a.Set |= ArgCores
		a.Cores = e.Cores
	}
	if e.Bytes != 0 {
		a.Set |= ArgBytes
		a.Bytes = e.Bytes
	}
	if e.Note != "" {
		a.Set |= ArgNote
		a.Note = e.Note
	}
	return a
}
