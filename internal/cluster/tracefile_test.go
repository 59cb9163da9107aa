package cluster_test

// The legacy OFFSET[,CORES[,TENANT]] tracefile contract the cluster's
// arrival streams were built on, under the test names it has always had.
// Cluster reads no files, so these drive tracereplay, which reads both
// trace shapes; tracereplay's reference_test.go holds it to the retired
// cluster parser byte for byte.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/tracereplay"
)

func parseLegacy(t *testing.T, csv string) *tracereplay.Trace {
	t.Helper()
	tr, err := tracereplay.Parse(strings.NewReader(csv))
	if err != nil {
		t.Fatalf("Parse(%q): %v", csv, err)
	}
	if !tr.Legacy {
		t.Fatalf("Parse(%q) read a production trace, want the legacy shape", csv)
	}
	return tr
}

func TestParseArrivalTraceCSV(t *testing.T) {
	tr := parseLegacy(t, "# arrival trace\n\n30s,4\n0s\n10s, 2 \n")
	want := []tracereplay.Row{{Arrival: 0}, {Arrival: 10 * time.Second, Cores: 2}, {Arrival: 30 * time.Second, Cores: 4}}
	if len(tr.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tr.Rows), len(want))
	}
	for i := range want {
		if tr.Rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, tr.Rows[i], want[i])
		}
	}

	for _, tc := range []struct {
		csv  string
		line string
	}{
		{"5s\nbogus\n", "line 2"},
		{"5s,-1\n", "line 1"},
		{"5s,0\n", "line 1"},
		{"5s,2,t0,extra\n", "line 1"},
		{"-1s\n", "line 1"},
		{"header\n-1s\n", "line 2"}, // header skip never hides a data error
		{"# only comments\n\n", "empty trace"},
		{"offset,cores,tenant\n", "empty trace"}, // header-only file
	} {
		_, err := tracereplay.Parse(strings.NewReader(tc.csv))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("Parse(%q): error %v, want mention of %q", tc.csv, err, tc.line)
		}
	}
}

// TestParseArrivalTraceTenantColumn covers the production-trace shapes the
// multi-tenant control plane ingests: a TENANT third column (with an
// optionally empty CORES field), a header row, CRLF line endings, and
// out-of-order arrivals that are sorted with a single recorded warning.
func TestParseArrivalTraceTenantColumn(t *testing.T) {
	tr := parseLegacy(t, "offset,cores,tenant\r\n10s,2,t01\r\n0s,,t00\r\n30s,4,t01\r\n5s\r\n")
	want := []tracereplay.Row{
		{Tenant: "t00", Arrival: 0},
		{Arrival: 5 * time.Second},
		{Tenant: "t01", Arrival: 10 * time.Second, Cores: 2},
		{Tenant: "t01", Arrival: 30 * time.Second, Cores: 4},
	}
	if len(tr.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tr.Rows), len(want))
	}
	for i := range want {
		if tr.Rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, tr.Rows[i], want[i])
		}
	}
	// Exactly two warnings: the skipped header, and one (not per-row)
	// out-of-order notice.
	if len(tr.Warnings) != 2 {
		t.Fatalf("warnings = %q, want header-skip + out-of-order", tr.Warnings)
	}
	if !strings.Contains(tr.Warnings[0], "header") || !strings.Contains(tr.Warnings[1], "out of order") {
		t.Errorf("warnings = %q", tr.Warnings)
	}

	// A clean, sorted, untenanted trace carries no warnings.
	clean := parseLegacy(t, "0s\n5s,4\n")
	if len(clean.Warnings) != 0 || clean.Rows[0].Tenant != "" || clean.Rows[1].Tenant != "" {
		t.Errorf("clean trace: warnings=%q rows=%+v", clean.Warnings, clean.Rows)
	}
}

func TestLoadArrivalTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arrivals.csv")
	if err := os.WriteFile(path, []byte("0s\n5s,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := tracereplay.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !tr.Legacy || len(tr.Rows) != 2 || tr.Rows[1].Arrival != 5*time.Second || tr.Rows[1].Cores != 4 {
		t.Fatalf("trace = %+v", tr)
	}

	// The arrival-spec parser leaves files to tracereplay.
	if _, err := cluster.ParseArrivals("tracefile:"+path, 99, 1); err == nil {
		t.Error("ParseArrivals accepted a tracefile spec")
	}

	if _, err := tracereplay.Load(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := tracereplay.Load(""); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := tracereplay.Load(dir); err == nil {
		t.Error("directory accepted")
	}
	if _, err := tracereplay.Load("/dev/null"); err == nil {
		t.Error("device file accepted")
	}
	big := filepath.Join(dir, "big.csv")
	if err := os.WriteFile(big, make([]byte, 1<<20+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracereplay.Load(big); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized file: got %v, want size-cap error", err)
	}

	// Malformed rows surface the path and line number to the operator.
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("0s\nnope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracereplay.Load(bad); err == nil ||
		!strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), bad) {
		t.Errorf("malformed row: got %v, want path and line 2", err)
	}
}

// FuzzParseArrivalTrace feeds arbitrary CSV bytes to the trace reader and
// checks what the cluster's arrival streams rely on: never panic, errors
// carry a line number, and any accepted trace yields sorted non-negative
// arrivals with zero-or-positive cores. FuzzParseTrace (tracereplay) is
// the differential fuzz target against the retired parsers.
func FuzzParseArrivalTrace(f *testing.F) {
	for _, csv := range []string{
		"0s\n5s\n", "30s,4\n0s\n10s,2\n", "# comment\n\n1m\n",
		"5s,0\n", "5s,-1\n", "5s,x\n", "bogus\n", "1s,2,3,4\n", "-1s\n", "",
		// Tenant column, empty-cores, header, CRLF and out-of-order shapes.
		"0s,4,t00\n5s,2,t01\n", "30s,,t02\n", "offset,cores,tenant\n1s,2,t00\n",
		"0s,4,t00\r\n5s,2,t01\r\n", "10s,1,t01\n0s,1,t00\n",
		"offset,cores,tenant\n", "header\n-1s\n",
	} {
		f.Add([]byte(csv))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := tracereplay.Parse(strings.NewReader(string(data)))
		if err != nil {
			if tr != nil {
				t.Errorf("Parse returned both a trace and error %v", err)
			}
			if !strings.Contains(err.Error(), "line ") && err.Error() != "empty trace" {
				t.Errorf("error without a line number: %v", err)
			}
			return
		}
		if len(tr.Rows) == 0 {
			t.Fatal("accepted trace has no rows")
		}
		if !sort.SliceIsSorted(tr.Rows, func(i, j int) bool { return tr.Rows[i].Arrival < tr.Rows[j].Arrival }) {
			t.Errorf("arrivals not ascending: %+v", tr.Rows)
		}
		for _, row := range tr.Rows {
			if row.Arrival < 0 {
				t.Errorf("negative arrival %v", row.Arrival)
			}
			if row.Cores < 0 {
				t.Errorf("negative cores %d", row.Cores)
			}
		}
	})
}
