package tracereplay

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/shard"
)

func TestParseShapes(t *testing.T) {
	tr, err := Parse(strings.NewReader(
		"tenant,arrival,runtime,cores\r\nt01,10,5,2\r\nt00,1.5,2m,4\r\n# c\nt01,1m30s,0.5,2\r\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Row{
		{Tenant: "t00", Arrival: 1500 * time.Millisecond, Runtime: 2 * time.Minute, Cores: 4},
		{Tenant: "t01", Arrival: 10 * time.Second, Runtime: 5 * time.Second, Cores: 2},
		{Tenant: "t01", Arrival: 90 * time.Second, Runtime: 500 * time.Millisecond, Cores: 2},
	}
	if len(tr.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tr.Rows), len(want))
	}
	for i, w := range want {
		if tr.Rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, tr.Rows[i], w)
		}
	}
	// Header skip + out-of-order sort, each warned exactly once.
	if len(tr.Warnings) != 2 ||
		!strings.Contains(tr.Warnings[0], "header") ||
		!strings.Contains(tr.Warnings[1], "out of order") {
		t.Errorf("warnings = %q", tr.Warnings)
	}

	for _, tc := range []struct {
		csv  string
		want string
	}{
		{"t00,1\n", "line 1"},
		{"t00,1,2,3,4\n", "line 1"},
		{",1,2,2\n", "empty tenant"},
		{"t00,-1,2,2\n", "bad arrival"},
		{"t00,1,0,2\n", "bad runtime"},
		{"t00,1,2,0\n", "bad cores"},
		// Out-of-range seconds are rejected by value, not by what the
		// float-to-integer conversion happens to yield on one platform.
		{"t00,NaN,2,2\n", `bad arrival "NaN": NaN is not a number of seconds`},
		{"t00,1,Inf,2\n", `bad runtime "Inf": Inf seconds is out of range`},
		{"t00,-Inf,2,2\n", `bad arrival "-Inf": -Inf seconds is out of range`},
		{"t00,1e300,2,2\n", `bad arrival "1e300": 1e300 seconds is out of range`},
		{"t00,1,9.3e9,2\n", `bad runtime "9.3e9": 9.3e9 seconds is out of range`},
		{"t00,1e400,2,2\n", `bad arrival "1e400": 1e400 seconds is out of range`},
		{"tenant,arrival,runtime,cores\n", "empty trace"},
		{"", "empty trace"},
	} {
		if _, err := Parse(strings.NewReader(tc.csv)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): error %v, want mention of %q", tc.csv, err, tc.want)
		}
	}
}

func TestDetect(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if !Detect(write("prod.csv", "tenant,arrival,runtime,cores\nt00,1,2,2\n")) {
		t.Error("4-column trace not detected as production shape")
	}
	if Detect(write("legacy.csv", "# trace\n30s,4,t00\n")) {
		t.Error("3-column legacy tracefile misdetected as production shape")
	}
	if Detect(dir + "/missing.csv") {
		t.Error("missing file detected as production shape")
	}
}

// TestGenerateDeterministicAndFixtureFresh pins the generator: same
// config and seed give the same trace, and the committed fixture is
// exactly what the generator produces — regenerate it when the generator
// changes.
func TestGenerateDeterministicAndFixtureFresh(t *testing.T) {
	cfg := GenConfig{Tenants: 4, Jobs: 24, MeanGap: 2 * time.Second, MeanRuntime: time.Second, Seed: 11}
	tr1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteCSV(&b1, tr1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b2, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same GenConfig produced different traces")
	}
	committed, err := os.ReadFile("testdata/multitenant_small.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), committed) {
		t.Errorf("committed fixture is stale: regenerate testdata/multitenant_small.csv\nwant:\n%s\ngot:\n%s",
			b1.Bytes(), committed)
	}
	// The fixture round-trips through the parser with no warnings beyond
	// the header skip.
	parsed, err := Parse(bytes.NewReader(committed))
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	if len(parsed.Rows) != cfg.Jobs {
		t.Errorf("fixture has %d rows, want %d", len(parsed.Rows), cfg.Jobs)
	}
	if len(parsed.Warnings) != 1 || !strings.Contains(parsed.Warnings[0], "header") {
		t.Errorf("fixture warnings = %q, want only the header skip", parsed.Warnings)
	}
}

// TestSpecsMapping: rows become tenant-labelled specs with cached
// baselines per runtime bucket.
func TestSpecsMapping(t *testing.T) {
	tr := &Trace{Rows: []Row{
		{Tenant: "t00", Arrival: 0, Runtime: 600 * time.Millisecond, Cores: 2},
		{Tenant: "t01", Arrival: time.Second, Runtime: 550 * time.Millisecond, Cores: 2},
		{Tenant: "t00", Arrival: 2 * time.Second, Runtime: 2 * time.Second, Cores: 4},
	}}
	specs, err := Specs(tr, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	for i, spec := range specs {
		if spec.Tenant != tr.Rows[i].Tenant || spec.Cores != tr.Rows[i].Cores || spec.Arrival != tr.Rows[i].Arrival {
			t.Errorf("spec %d = %q/%d/%s, want %q/%d/%s", i,
				spec.Tenant, spec.Cores, spec.Arrival,
				tr.Rows[i].Tenant, tr.Rows[i].Cores, tr.Rows[i].Arrival)
		}
		if spec.Baseline <= 0 {
			t.Errorf("spec %d has no baseline", i)
		}
	}
	// Rows 0 and 1 share the 500ms bucket and demand, so their workloads
	// and baselines are identical.
	if specs[0].Baseline != specs[1].Baseline {
		t.Errorf("bucketed baselines differ: %s vs %s", specs[0].Baseline, specs[1].Baseline)
	}
	if specs[0].Workload.Name() != specs[1].Workload.Name() {
		t.Errorf("bucketed workloads differ: %s vs %s", specs[0].Workload.Name(), specs[1].Workload.Name())
	}
}

// TestReplayFixtureValidates replays the committed fixture through a
// 4-shard control plane and checks the merged report against the trace's
// empirical per-tenant distributions — the whole tentpole pipeline
// end-to-end.
func TestReplayFixtureValidates(t *testing.T) {
	tr, err := Load("testdata/multitenant_small.csv")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Specs(tr, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.New(shard.Config{Shards: 4, Cluster: cluster.Config{
		Jobs: specs, PoolCores: 16, Seed: 9,
		Strategy: cluster.StrategyQueue,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(tr.Rows) {
		t.Fatalf("replayed %d jobs, trace has %d", rep.Jobs, len(tr.Rows))
	}
	v := Validate(tr, rep)
	if !v.OK {
		t.Errorf("validation failed:\n%s", v)
	}
	if len(v.Tenants) != 4 {
		t.Errorf("validated %d tenants, want 4", len(v.Tenants))
	}
	for _, tv := range v.Tenants {
		if tv.RuntimeRatio <= 0 {
			t.Errorf("tenant %s has no runtime ratio", tv.Tenant)
		}
	}
}
