package cliutil

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitserve/internal/eventlog"
)

func TestValidateReport(t *testing.T) {
	for _, ok := range []string{"", "json", "prom"} {
		if err := ValidateReport(ok); err != nil {
			t.Errorf("ValidateReport(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"yaml", "JSON", "text"} {
		err := ValidateReport(bad)
		if err == nil {
			t.Errorf("ValidateReport(%q) = nil, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "accepted: json, prom") {
			t.Errorf("ValidateReport(%q) error %q does not list accepted formats", bad, err)
		}
	}
}

// FuzzValidateReport: the -report validator must never panic and must
// either accept a known format or return an error naming the accepted
// vocabulary — the property every command's flag handling relies on.
func FuzzValidateReport(f *testing.F) {
	for _, s := range []string{"", "json", "prom", "yaml", "JSON", "j\x00son", "promjson"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, format string) {
		err := ValidateReport(format)
		known := format == ""
		for _, f := range ReportFormats {
			known = known || format == f
		}
		if known && err != nil {
			t.Errorf("ValidateReport(%q) rejected a known format: %v", format, err)
		}
		if !known {
			if err == nil {
				t.Errorf("ValidateReport(%q) accepted an unknown format", format)
			} else if !strings.Contains(err.Error(), "accepted:") {
				t.Errorf("ValidateReport(%q) error %q does not list accepted formats", format, err)
			}
		}
	})
}

func testEvents(t *testing.T) []eventlog.Event {
	t.Helper()
	origin := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	bus := eventlog.NewBus(origin)
	ev := eventlog.Ev(eventlog.JobStart)
	ev.App = "app-1"
	bus.Emit(origin.Add(time.Second), ev)
	return bus.Events()
}

func TestWriteEventLogAndTrace(t *testing.T) {
	events := testEvents(t)
	dir := t.TempDir()

	logPath := filepath.Join(dir, "events.jsonl")
	if err := WriteEventLog(logPath, events); err != nil {
		t.Fatalf("WriteEventLog: %v", err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"job_start"`) {
		t.Errorf("event log missing job_start: %s", data)
	}

	tracePath := filepath.Join(dir, "trace.json")
	if err := WriteTrace(tracePath, events); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	data, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("trace output missing traceEvents wrapper: %s", data)
	}

	// "" is a no-op regardless of the stream.
	if err := WriteEventLog("", nil); err != nil {
		t.Errorf(`WriteEventLog("", nil) = %v, want nil`, err)
	}
	if err := WriteTrace("", nil); err != nil {
		t.Errorf(`WriteTrace("", nil) = %v, want nil`, err)
	}
}

// TestWriteEventLogDestinations: "-" and a file path both stream exactly
// the bytes eventlog.WriteJSONL writes.
func TestWriteEventLogDestinations(t *testing.T) {
	origin := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	bus := eventlog.NewBus(origin)
	for i, typ := range []eventlog.Type{eventlog.JobStart, eventlog.StageStart, eventlog.JobEnd} {
		ev := eventlog.Ev(typ)
		ev.App = "app-1"
		ev.Stage = i - 1
		ev.Note = "quote \" and <tag>"
		bus.Emit(origin.Add(time.Duration(i)*time.Second), ev)
	}
	events := bus.Events()
	var want bytes.Buffer
	if err := eventlog.WriteJSONL(&want, events); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := WriteEventLog(path, events); err != nil {
		t.Fatalf("WriteEventLog(path): %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("file:\n%s\nwant:\n%s", got, want.Bytes())
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		read <- data
	}()
	werr := WriteEventLog("-", events)
	os.Stdout = stdout
	w.Close()
	got = <-read
	r.Close()
	if werr != nil {
		t.Fatalf(`WriteEventLog("-"): %v`, werr)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, want.Bytes())
	}

	if err := WriteEventLog(filepath.Join(t.TempDir(), "missing", "events.jsonl"), events); err == nil {
		t.Error("WriteEventLog into a missing directory succeeded")
	}
}
