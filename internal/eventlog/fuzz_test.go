package eventlog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadJSONL: no input panics the event-log reader, and every log it
// accepts survives a WriteJSONL → ReadJSONL round trip unchanged. The
// corpus is seeded from a cluster smoke run's event log
// (testdata/smoke.jsonl: one sparkpi job, trimmed to one executor), its
// single lines, and a few hand-made edge cases.
func FuzzReadJSONL(f *testing.F) {
	smoke, err := os.ReadFile(filepath.Join("testdata", "smoke.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, line := range bytes.SplitAfter(smoke, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte("\n \r\n\t\n"))
	f.Add([]byte(`{"type":"job_start","stage":-1,"task":-1}` + "\r\n"))
	f.Add([]byte(`{"TYPE":"segue","Note":"<&> ","ts_us":-5}`))
	f.Add([]byte("{\"type\":\"task_end\",\"note\":\"\xff\xfe\"}"))
	f.Add([]byte(`{"type":"job_strat"}`))
	f.Add([]byte(`{"type":"job_start","stage":1.5}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("WriteJSONL of an accepted log: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading the written log: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("round trip changed the events:\nread    %+v\nre-read %+v", events, back)
		}
	})
}
