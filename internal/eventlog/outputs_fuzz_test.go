package eventlog_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"splitserve/internal/attrib"
	"splitserve/internal/eventlog"
)

// Strings the decoder draws from: plain names, the substrate kinds, and
// each class of byte encoding/json escapes on its own (HTML-sensitive <,
// > and &, quote, backslash, control bytes), plus DEL and non-ASCII
// (valid, invalid, U+2028).
var (
	fuzzApps  = []string{"", "j001", "a&b", "t<1>"}
	fuzzExecs = []string{"", "j001-w01", "e\\1", "e\x01\x7f"}
	fuzzKinds = []string{"", "vm", "lambda", "k\"q"}
	fuzzNotes = []string{"", "s0->s1", "\xff é\u2028"}
)

// decodeEvents turns fuzz bytes into a time-ordered event stream. Each
// event takes five bytes: the type; the gap to the previous event;
// app, executor, kind and note picks (two bits each, where note pick 3
// reads a raw string from the input instead); stage and task as signed
// nibbles; cores and bytes from one signed byte. Small pools make starts
// and ends pair up often, so slices close, stay open and collide.
func decodeEvents(data []byte) []eventlog.Event {
	types := eventlog.AllTypes()
	var events []eventlog.Event
	var ts int64
	for len(data) >= 5 {
		op, gap, picks, ids, size := data[0], data[1], data[2], data[3], data[4]
		data = data[5:]
		e := eventlog.Ev(types[int(op)%len(types)])
		ts += int64(gap) * 997
		e.TS = ts
		e.App = fuzzApps[picks&3]
		e.Exec = fuzzExecs[picks>>2&3]
		e.Kind = fuzzKinds[picks>>4&3]
		if n := picks >> 6; n < 3 {
			e.Note = fuzzNotes[n]
		} else if len(data) > 0 {
			l := min(int(data[0]), len(data)-1)
			e.Note = string(data[1 : 1+l])
			data = data[1+l:]
		}
		e.Stage = int(int8(ids<<4)>>4) + 1 // -7..8, so -1 and 0 are common
		e.Task = int(int8(ids)>>4) + 1
		e.Cores = int(int8(size)) >> 3
		e.Bytes = int64(int8(size)) << 12
		events = append(events, e)
	}
	return events
}

// seedStream encodes one job's life cycle in decodeEvents' format.
func seedStream() []byte {
	index := map[eventlog.Type]byte{}
	for i, typ := range eventlog.AllTypes() {
		index[typ] = byte(i)
	}
	ev := func(typ eventlog.Type, gap, picks, ids, size byte) []byte {
		return []byte{index[typ], gap, picks, ids, size}
	}
	var b []byte
	for _, e := range [][]byte{
		ev(eventlog.ClusterArrive, 0, 0x01, 0xff, 0x20),
		ev(eventlog.ClusterAdmit, 3, 0x01, 0xff, 0x20),
		ev(eventlog.ExecutorAdd, 1, 0x15, 0xff, 0x10),
		ev(eventlog.ExecutorAdd, 0, 0x29, 0xff, 0x10),
		ev(eventlog.StageStart, 2, 0x01, 0xf1, 0),
		ev(eventlog.TaskStart, 0, 0x15, 0x01, 0),
		ev(eventlog.TaskStart, 0, 0x29, 0x11, 0),
		ev(eventlog.ShuffleWrite, 9, 0x05, 0x01, 0x40),
		ev(eventlog.TaskEnd, 0, 0x05, 0x01, 0),
		ev(eventlog.TmpCacheHit, 1, 0x08, 0xff, 0x7f),
		ev(eventlog.TaskFailed, 4, 0x09, 0x11, 0),
		ev(eventlog.StageEnd, 1, 0x01, 0xf1, 0),
		ev(eventlog.CostPick, 0, 0x81, 0xff, 0x18),
		ev(eventlog.ShardSteal, 0, 0x89, 0xff, 0x10),
		ev(eventlog.ExecutorRemove, 2, 0x45, 0xff, 0),
		ev(eventlog.ClusterFinish, 1, 0x01, 0xff, 0),
		ev(eventlog.TenantReport, 0, 0xc0, 0xff, 0x08),
	} {
		b = append(b, e...)
	}
	return append(b, 4, '<', 0xe2, 0x80, 0xa8)
}

// everyPick decodes to 256 events that between them take every type,
// every pool string and every stage, task and size value.
func everyPick() []byte {
	var b []byte
	for i := range 256 {
		b = append(b, byte(i), 1, byte(i), byte(i*7), byte(i))
	}
	return b
}

// refAttribJSON is attrib's encoding/json reference writer (kept in
// internal/attrib/reference_test.go, which this test binary cannot see).
func refAttribJSON(r *attrib.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkOutputs holds the JSONL log, the Chrome trace and the attribution
// report of events to their encoding/json references: equal bytes, or
// both sides fail.
func checkOutputs(t *testing.T, events []eventlog.Event) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := eventlog.WriteJSONL(&got, events), eventlog.RefWriteJSONL(&want, events)
	same(t, "JSONL", got.Bytes(), gotErr, want.Bytes(), wantErr)

	gotTrace, gotErr := eventlog.ChromeTrace(events)
	wantTrace, wantErr := eventlog.RefChromeTrace(events)
	same(t, "Chrome trace", gotTrace, gotErr, wantTrace, wantErr)

	rep := attrib.Analyze(events)
	gotAtt, gotErr := rep.JSON()
	wantAtt, wantErr := refAttribJSON(rep)
	same(t, "attribution", gotAtt, gotErr, wantAtt, wantErr)
}

func same(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s differs from the reference at byte %d:\ngot  %q\nwant %q",
			what, n, got[max(0, n-80):min(len(got), n+80)], want[max(0, n-80):min(len(want), n+80)])
	}
}

// FuzzOutputEncoders: for any event stream, the hand-written writers of
// the three event-derived outputs emit exactly the bytes of the
// encoding/json writers they replaced.
func FuzzOutputEncoders(f *testing.F) {
	f.Add([]byte{})
	f.Add(seedStream())
	f.Add(append(seedStream()[:40], seedStream()...))
	f.Add(everyPick())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOutputs(t, decodeEvents(data))
	})
}

func TestOutputEncodersEmptyStream(t *testing.T) {
	checkOutputs(t, nil)
	checkOutputs(t, []eventlog.Event{})
}

// TestOutputEncodersClampOrder: slices still open at the end tie on
// (ts, pid, tid, dur), and the clamp is the first sight of apps y, z, m
// and n (and of z's and y's executors), so the clamp order alone decides
// the bytes.
func TestOutputEncodersClampOrder(t *testing.T) {
	var events []eventlog.Event
	add := func(typ eventlog.Type, ts int64, app, exec string, stage, task int) {
		e := eventlog.Ev(typ)
		e.TS, e.App, e.Exec, e.Stage, e.Task, e.Kind = ts, app, exec, stage, task, "vm"
		events = append(events, e)
	}
	add(eventlog.JobStart, 0, "a", "", -1, -1)
	add(eventlog.TaskStart, 5, "a", "e1", 0, 1)
	add(eventlog.TaskStart, 5, "a", "e1", 0, 0)
	add(eventlog.TaskStart, 5, "z", "x", 1, 0)
	add(eventlog.TaskStart, 5, "y", "w", 1, 0)
	add(eventlog.StageStart, 6, "z", "", 2, -1)
	add(eventlog.StageStart, 6, "z", "", 1, -1)
	add(eventlog.ExecutorAdd, 6, "z", "q", -1, -1)
	add(eventlog.ExecutorAdd, 6, "n", "p", -1, -1)
	add(eventlog.ExecutorAdd, 6, "m", "p", -1, -1)
	checkOutputs(t, events)
}

func TestOutputEncodersSeedStream(t *testing.T) {
	events := decodeEvents(seedStream())
	if len(events) < 17 {
		t.Fatalf("seed decoded to %d events, want 17", len(events))
	}
	checkOutputs(t, events)
	// The seed cut anywhere leaves slices open to be clamped.
	for n := range events {
		checkOutputs(t, events[:n])
	}
	checkOutputs(t, decodeEvents(everyPick()))
}
