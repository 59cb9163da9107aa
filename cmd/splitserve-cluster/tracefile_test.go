package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"splitserve/internal/cluster"
)

// TestReadTracefile drives the -arrival tracefile: path on both shapes.
// Each file is copied, read by readTracefile, and deleted before anything
// else uses the trace, so a second read of it would fail: the run reads
// each file once. Every warning is printed exactly once, and a legacy
// file's core pins and tenant labels reach the job stream.
func TestReadTracefile(t *testing.T) {
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "tracereplay", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, tc := range []struct {
		name     string
		csv      []byte
		legacy   bool
		warnings []string
		arrivals []time.Duration
		cores    []int    // after pinCores over a fixed 3-core default
		tenants  []string // after labelTenants with no synthetic tenants
	}{
		{
			name: "legacy pins and tenants", csv: fixture("legacy_small.csv"), legacy: true,
			warnings: []string{`line 4: skipped header row "offset,cores,tenant"`, "arrivals out of order: sorted rows by offset"},
			arrivals: []time.Duration{0, 5 * time.Second, 12 * time.Second, 20 * time.Second, 30 * time.Second, 45 * time.Second},
			cores:    []int{4, 3, 8, 2, 4, 3},
			tenants:  []string{"t00", "t01", "t01", "t00", "t00", "t01"},
		},
		{
			name: "offsets only", csv: []byte("0s\n10s\n25s\n"), legacy: true,
			arrivals: []time.Duration{0, 10 * time.Second, 25 * time.Second},
			cores:    []int{3, 3, 3},
			tenants:  []string{"", "", ""},
		},
		{
			name: "production fixture", csv: fixture("multitenant_small.csv"),
			warnings: []string{`line 1: skipped header row "tenant,arrival,runtime,cores"`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.csv")
			if err := os.WriteFile(path, tc.csv, 0o644); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			tr, err := readTracefile(path, &stderr)
			if err != nil {
				t.Fatalf("readTracefile: %v", err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if tr.Legacy != tc.legacy {
				t.Fatalf("Legacy = %v, want %v", tr.Legacy, tc.legacy)
			}
			var want strings.Builder
			for _, w := range tc.warnings {
				want.WriteString("splitserve-cluster: warning: " + w + "\n")
			}
			if stderr.String() != want.String() {
				t.Errorf("stderr:\n%s\nwant:\n%s", stderr.String(), want.String())
			}
			if !tc.legacy {
				if len(tr.Rows) != 24 || tr.Rows[0].Runtime <= 0 {
					t.Errorf("production fixture: %d rows, first %+v", len(tr.Rows), tr.Rows[0])
				}
				return
			}

			var arrivals []time.Duration
			for _, row := range tr.Rows {
				arrivals = append(arrivals, row.Arrival)
			}
			if !slices.Equal(arrivals, tc.arrivals) {
				t.Errorf("arrivals = %v, want %v", arrivals, tc.arrivals)
			}
			cores := make([]int, len(tr.Rows))
			picks := make([]*cluster.CostPick, len(tr.Rows))
			for i := range cores {
				cores[i], picks[i] = 3, &cluster.CostPick{}
			}
			pinCores(cores, picks, tr.Rows)
			if !slices.Equal(cores, tc.cores) {
				t.Errorf("cores = %v, want %v", cores, tc.cores)
			}
			for i, p := range picks {
				if (p == nil) != (tr.Rows[i].Cores > 0) {
					t.Errorf("job %d: cost-manager pick kept = %v with a %d-core pin", i, p != nil, tr.Rows[i].Cores)
				}
			}
			specs := make([]cluster.JobSpec, len(tr.Rows))
			tenanted := labelTenants(specs, tr.Rows, 0)
			var tenants []string
			for _, s := range specs {
				tenants = append(tenants, s.Tenant)
			}
			if !slices.Equal(tenants, tc.tenants) || tenanted != (tc.tenants[0] != "") {
				t.Errorf("tenants = %q (tenanted %v), want %q", tenants, tenanted, tc.tenants)
			}
		})
	}
}

// TestLabelTenantsRoundRobin: with no TENANT column, -tenants N labels
// the stream round-robin; a row's own tenant still wins.
func TestLabelTenantsRoundRobin(t *testing.T) {
	specs := make([]cluster.JobSpec, 4)
	if !labelTenants(specs, nil, 3) {
		t.Fatal("labelled stream reported untenanted")
	}
	for i, want := range []string{"t00", "t01", "t02", "t00"} {
		if specs[i].Tenant != want {
			t.Errorf("job %d tenant %q, want %q", i, specs[i].Tenant, want)
		}
	}
	specs = make([]cluster.JobSpec, 2)
	if labelTenants(specs, nil, 0) {
		t.Error("unlabelled stream reported tenanted")
	}
}
