package attrib

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// checkJSON holds Report.JSON to the encoding/json reference: equal
// bytes, or both fail.
func checkJSON(t *testing.T, r *Report) {
	t.Helper()
	got, gotErr := r.JSON()
	want, wantErr := refJSON(r)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("JSON error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("JSON differs from the reference:\ngot\n%s\nwant\n%s", got, want)
	}
}

func TestJSONMatchesReference(t *testing.T) {
	seg := Segment{Cause: Compute, StartUS: -3, EndUS: 0, Stage: -1, Task: 0, Exec: "e<1>", Kind: "lambda", Detail: "a \"b\"\xff"}
	cases := map[string]*Report{
		"nil report":   nil,
		"empty log":    Analyze(nil),
		"zero report":  {},
		"nil path":     {Schema: SchemaV1, Jobs: []JobAttribution{{App: "a", Path: nil}}},
		"empty path":   {Schema: SchemaV1, Jobs: []JobAttribution{{App: "a", Path: []Segment{}, BlameUS: map[Cause]int64{}}}},
		"nil table":    {Schema: SchemaV1, Jobs: []JobAttribution{}, ByTenant: map[string]*Table{"t&": nil, "": newTable()}},
		"empty tables": {Schema: SchemaV1, ByBackend: map[string]*Table{}, Totals: &Table{}},
		"full job": {Schema: SchemaV1, Jobs: []JobAttribution{{
			App: "j<001>", Name: "sparkpi", Tenant: "t01", ArrivalUS: 5, EndUS: 1 << 62, MakespanUS: -1, Failed: true,
			BlameUS: map[Cause]int64{Compute: 3, QueueWait: 0, "zz": -9, "Ω": 1},
			SavedUS: map[Cause]int64{WarmHitSaved: 8_000_000},
			CostUSD: map[Cause]float64{
				Compute: 1e-7, QueueWait: 1e21, VMBoot: math.Copysign(0, -1), ShuffleFetch: 5e-324,
				ShuffleWrite: 123456789.123, StragglerTail: 1e20, LambdaColdStart: -2.5e-9, AdmissionDelay: 0.000001,
			},
			Path: []Segment{seg, {}},
		}}},
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) { checkJSON(t, r) })
	}
}

// TestJSONNonFiniteCostErrors: a cost JSON cannot carry fails the whole
// report, as it did under encoding/json.
func TestJSONNonFiniteCostErrors(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		job := &Report{Schema: SchemaV1, Jobs: []JobAttribution{{App: "a", CostUSD: map[Cause]float64{Compute: 1, VMBoot: v}}}}
		table := &Report{Schema: SchemaV1, Totals: &Table{CostUSD: map[string]float64{"compute": v}}}
		for _, r := range []*Report{job, table} {
			_, err := r.JSON()
			_, refErr := refJSON(r)
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Errorf("cost %v: JSON error %v, reference error %v", v, err, refErr)
			}
		}
	}
}

// FuzzParseReport: no input panics the report reader; every report it
// accepts writes the reference encoder's bytes, and writing is a fixed
// point of parsing (JSON(ParseReport(out)) == out). Seeded from the
// attribution goldens of the cluster command.
func FuzzParseReport(f *testing.F) {
	for _, name := range []string{"warmpool", "warmpool-cut"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "splitserve-cluster", "testdata", "outputs", name+".attrib.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"splitserve-attrib/v1","jobs":null,"totals":null}`))
	f.Add([]byte(`{"schema":"splitserve-attrib/v1","jobs":[{"app":"<&>","blame_us":{},"cost_usd":{"x":1e-7,"y":-0},"path":[]}],"by_tenant":{"a":null}}`))
	f.Add([]byte(`{"schema":"splitserve-attrib/v2"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseReport(data)
		if err != nil {
			return
		}
		checkJSON(t, r)
		out, err := r.JSON()
		if err != nil {
			t.Fatalf("JSON of a parsed report: %v", err)
		}
		back, err := ParseReport(out)
		if err != nil {
			t.Fatalf("re-parsing the written report: %v\n%s", err, out)
		}
		again, err := back.JSON()
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("JSON(ParseReport(out)) != out (err %v):\n%s\nvs\n%s", err, again, out)
		}
	})
}
