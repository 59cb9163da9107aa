package metrics

import (
	"strings"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/telemetry"
)

const app = "app-1"

// ev builds one of app's events at offset at from the bus origin.
func ev(at time.Duration, typ eventlog.Type, exec, kind string, stage, task int) eventlog.Event {
	return eventlog.Event{TS: at.Microseconds(), Type: typ, App: app,
		Exec: exec, Kind: kind, Stage: stage, Task: task}
}

func TestTaskSpansPairing(t *testing.T) {
	spans := TaskSpans([]eventlog.Event{
		ev(1*time.Second, eventlog.TaskStart, "e1", "vm", 0, 0),
		ev(2*time.Second, eventlog.TaskStart, "e2", "lambda", 0, 1),
		ev(3*time.Second, eventlog.TaskEnd, "e1", "vm", 0, 0),
		ev(5*time.Second, eventlog.TaskFailed, "e2", "lambda", 0, 1),
	}, app)
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Exec != "e1" || spans[0].End-spans[0].Start != 2*time.Second {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].ExecKind != "lambda" {
		t.Fatalf("span 1 kind = %q", spans[1].ExecKind)
	}
}

func TestTaskSpansUnmatchedStartEmitsOpenSpan(t *testing.T) {
	spans := TaskSpans([]eventlog.Event{
		ev(time.Second, eventlog.TaskStart, "e1", "lambda", 0, 0),
		ev(9*time.Second, eventlog.ExecutorRemove, "e1", "lambda", -1, -1),
		// Another subsystem's later event does not move the clamp.
		ev(20*time.Second, eventlog.HDFSRead, "", "", -1, -1),
	}, app)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	s := spans[0]
	if !s.Open {
		t.Fatalf("span not marked open: %+v", s)
	}
	if s.End != 9*time.Second {
		t.Fatalf("open span not clamped to the last engine event: %+v", s)
	}
	if s.Exec != "e1" || s.ExecKind != "lambda" {
		t.Fatalf("span identity lost: %+v", s)
	}
}

// TestProjectionsFilterByApp: another app's events never enter a view.
func TestProjectionsFilterByApp(t *testing.T) {
	other := ev(0, eventlog.TaskStart, "x1", "vm", 0, 0)
	other.App = "app-2"
	events := []eventlog.Event{
		other,
		ev(0, eventlog.TaskStart, "e1", "vm", 0, 0),
		ev(time.Second, eventlog.TaskEnd, "e1", "vm", 0, 0),
	}
	if spans := TaskSpans(events, app); len(spans) != 1 || spans[0].Exec != "e1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans := TaskSpans(events, "app-2"); len(spans) != 1 || !spans[0].Open {
		t.Fatalf("other app's spans = %+v", spans)
	}
}

func TestStageSpans(t *testing.T) {
	spans := StageSpans([]eventlog.Event{
		ev(0, eventlog.StageStart, "", "", 1, -1),
		ev(time.Second, eventlog.StageStart, "", "", 2, -1),
		ev(3*time.Second, eventlog.StageEnd, "", "", 2, -1),
		ev(4*time.Second, eventlog.StageEnd, "", "", 1, -1),
		ev(5*time.Second, eventlog.StageStart, "", "", 3, -1),
	}, app)
	if len(spans) != 2 {
		t.Fatalf("stage spans = %d", len(spans))
	}
	if spans[0].Stage != 1 || spans[1].Stage != 2 {
		t.Fatalf("order = %+v", spans)
	}
}

func TestRenderTimeline(t *testing.T) {
	out := RenderTimeline([]eventlog.Event{
		ev(0, eventlog.ExecutorAdd, "e1", "vm", -1, -1),
		ev(0, eventlog.ExecutorAdd, "e2", "lambda", -1, -1),
		ev(0, eventlog.TaskStart, "e1", "vm", 0, 0),
		ev(5*time.Second, eventlog.Segue, "", "", -1, -1),
		ev(10*time.Second, eventlog.TaskEnd, "e1", "vm", 0, 0),
	}, app, 40)
	if !strings.Contains(out, "e1 [vm]") || !strings.Contains(out, "e2 [lambda]") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no activity marks:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Fatalf("no segue mark:\n%s", out)
	}
}

func TestRenderTimelineHeaderTicks(t *testing.T) {
	// Dense activity covering the whole row: the in-row segue marker can't
	// land on a '.', so only the header tick row can show it.
	out := RenderTimeline([]eventlog.Event{
		ev(0, eventlog.ExecutorAdd, "e1", "vm", -1, -1),
		ev(0, eventlog.TaskStart, "e1", "vm", 0, 0),
		ev(5*time.Second, eventlog.Segue, "", "", -1, -1),
		ev(8*time.Second, eventlog.VMReady, "", "", -1, -1),
		ev(10*time.Second, eventlog.TaskEnd, "e1", "vm", 0, 0),
	}, app, 40)
	if !strings.Contains(out, "S") {
		t.Fatalf("header missing segue tick:\n%s", out)
	}
	if !strings.Contains(out, "V") {
		t.Fatalf("header missing vm-ready tick:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "e1 [vm]") && strings.Contains(line, "|") {
			t.Fatalf("segue drawn over dense row:\n%s", out)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	if got := RenderTimeline(nil, app, 40); !strings.Contains(got, "no task activity") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderTimelineTinyWidthDefaults(t *testing.T) {
	out := RenderTimeline([]eventlog.Event{
		ev(0, eventlog.ExecutorAdd, "e1", "vm", -1, -1),
		ev(0, eventlog.TaskStart, "e1", "vm", 0, 0),
		ev(time.Second, eventlog.TaskEnd, "e1", "vm", 0, 0),
	}, app, 1) // clamps to 80
	if len(out) == 0 {
		t.Fatal("no output")
	}
}

func TestDuplicateRegistrationIgnored(t *testing.T) {
	out := RenderTimeline([]eventlog.Event{
		ev(0, eventlog.ExecutorAdd, "e1", "vm", -1, -1),
		ev(1, eventlog.ExecutorAdd, "e1", "vm", -1, -1),
		ev(0, eventlog.TaskStart, "e1", "vm", 0, 0),
		ev(time.Second, eventlog.TaskEnd, "e1", "vm", 0, 0),
	}, app, 40)
	if strings.Count(out, "e1 [vm]") != 1 {
		t.Fatalf("duplicate rows:\n%s", out)
	}
}

// TestBridgeSpans: the bus subscriber turns app's engine events into the
// telemetry spans and marks a report exports, under their historical
// names, and ignores other apps and the provider's app-less events.
func TestBridgeSpans(t *testing.T) {
	t0 := time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)
	bus := eventlog.NewBus(t0)
	hub := telemetry.New(telemetry.StaticClock(t0))
	BridgeSpans(bus, hub, app)
	emit := func(e eventlog.Event) { bus.Emit(t0.Add(time.Duration(e.TS)*time.Microsecond), e) }

	emit(ev(0, eventlog.JobStart, "", "", -1, -1))
	emit(ev(0, eventlog.ExecutorAdd, "e1", "lambda", -1, -1))
	emit(ev(time.Second, eventlog.StageStart, "", "", 0, -1))
	emit(ev(time.Second, eventlog.TaskStart, "e1", "lambda", 0, 3))
	provider := eventlog.Ev(eventlog.VMReady)
	provider.TS = (2 * time.Second).Microseconds()
	emit(provider)
	emit(ev(2*time.Second, eventlog.Segue, "", "", -1, -1))
	emit(ev(2*time.Second, eventlog.ExecutorDrain, "e1", "lambda", -1, -1))
	emit(ev(3*time.Second, eventlog.TaskEnd, "e1", "lambda", 0, 3))
	emit(ev(3*time.Second, eventlog.ExecutorRemove, "e1", "lambda", -1, -1))
	other := ev(3*time.Second, eventlog.TaskStart, "x1", "vm", 0, 0)
	other.App = "app-2"
	emit(other)

	var got []string
	for _, s := range hub.Tracer().Spans() {
		got = append(got, s.Component+"/"+s.Name)
		if s.Component == "task" && (s.Attr("task") != "3" || s.Finish.Sub(s.Start) != 2*time.Second) {
			t.Errorf("task span = %+v", s)
		}
		if s.Component == "executor" && s.Open {
			t.Errorf("executor span left open: %+v", s)
		}
	}
	want := "job/run executor/lifetime stage/run task/run executor/drain"
	if strings.Join(got, " ") != want {
		t.Errorf("spans = %v, want %s", got, want)
	}
	marks := hub.Tracer().Marks()
	if len(marks) != 1 || marks[0].Name != "segue_commence" || marks[0].Component != "timeline" {
		t.Errorf("marks = %+v, want one timeline/segue_commence", marks)
	}
}
