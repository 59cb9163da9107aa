package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitserve/internal/attrib"
	"splitserve/internal/eventlog"
	"splitserve/internal/perfstat"
)

// TestHistoryHandlerRoutes serves a committed event log (the warm-pool
// cluster run the output goldens pin) and checks every route: status,
// Content-Type and a body that is what the route promises.
func TestHistoryHandlerRoutes(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "splitserve-cluster", "testdata", "outputs", "warmpool.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := eventlog.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	analysis := eventlog.Analyze(events, eventlog.DefaultStragglerFactor)
	snap := &perfstat.Snapshot{Schema: perfstat.SchemaV1, Label: "history-test", EventsFired: 7}
	h, err := historyHandler(events, analysis, attrib.Analyze(events), snap)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	var wantLog bytes.Buffer
	if err := eventlog.WriteJSONL(&wantLog, events); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, contentType string
		check             func(t *testing.T, body []byte)
	}{
		{"/", "text/html; charset=utf-8", contains("<html")},
		{"/trace", "application/json", func(t *testing.T, body []byte) {
			var trace struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(body, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("trace does not decode to trace events: %v", err)
			}
		}},
		{"/analysis", "text/plain; charset=utf-8", func(t *testing.T, body []byte) {
			if string(body) != analysis.String() {
				t.Errorf("analysis body differs from Analysis.String()")
			}
		}},
		{"/log", "application/x-ndjson", func(t *testing.T, body []byte) {
			if !bytes.Equal(body, wantLog.Bytes()) {
				t.Errorf("log: %d bytes, eventlog.WriteJSONL wrote %d", len(body), wantLog.Len())
			}
		}},
		{"/attrib", "text/html; charset=utf-8", contains("<html")},
		{"/perf", "text/html; charset=utf-8", contains("history-test")},
	} {
		t.Run(tc.path, func(t *testing.T) {
			rec := get(tc.path)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != tc.contentType {
				t.Errorf("Content-Type %q, want %q", ct, tc.contentType)
			}
			tc.check(t, rec.Body.Bytes())
		})
	}

	if code := get("/nope").Code; code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

func contains(s string) func(*testing.T, []byte) {
	return func(t *testing.T, body []byte) {
		if !strings.Contains(string(body), s) {
			t.Errorf("body does not contain %q", s)
		}
	}
}
