package loadbench

import (
	"bytes"
	"os"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the BENCH file reader that
// splitserve-loadbench -compare uses. The contract: never panic, and any
// accepted file re-renders to JSON that parses back and renders to the
// same bytes — JSON then Parse is a fixed point.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"../../BENCH_baseline.json", "../../BENCH_shard.json"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"schema":"splitserve-loadbench/v1"}`, `{"schema":"bogus/v0"}`,
		`{"schema":"splitserve-loadbench/v1","points":[]}`,
		`{"schema":"splitserve-loadbench/v1","points":[{"jobs":1,"shards":0,"wall_seconds":1e-320}]}`,
		`{"schema":"splitserve-loadbench/v1","seed":18446744073709551615,"label":"\ud800"}`,
		`{"schema":"splitserve-loadbench/v1","points":[null]}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			if file != nil {
				t.Errorf("Parse returned both a file and error %v", err)
			}
			return
		}
		once, err := file.JSON()
		if err != nil {
			t.Fatalf("accepted file does not render: %v", err)
		}
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("rendered file does not parse: %v\n%s", err, once)
		}
		twice, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Errorf("not a fixed point:\n%s\nthen\n%s", once, twice)
		}
	})
}
