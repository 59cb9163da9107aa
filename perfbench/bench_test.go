package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEveryPackageHasOneLayer walks the repo's internal/ tree: every
// package must map to exactly one known layer, and every table entry must
// still be a package, so a new package cannot go unmapped.
func TestEveryPackageHasOneLayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	found := map[string]bool{}
	err := filepath.WalkDir(filepath.Join("..", "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		found[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no packages found under ../internal")
	}
	for pkg := range found {
		layer, ok := packageLayer[pkg]
		if !ok {
			t.Errorf("package %s maps to no layer: add it to packageLayer", pkg)
		} else if !known[layer] {
			t.Errorf("package %s maps to unknown layer %q", pkg, layer)
		}
	}
	for pkg := range packageLayer {
		if !found[pkg] {
			t.Errorf("packageLayer lists %s, which is not a package", pkg)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"splitserve/internal/netsim.(*Network).recompute"}, "netsim"},
		{[]string{"sort.Slice", "splitserve/internal/cluster.(*Scheduler).schedule"}, "cluster"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "splitserve/internal/netsim.New"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "runtime"},
		{[]string{"main.(*rowSource).gen", "splitserve/internal/spark/engine.(*Cluster).run"}, "payload"},
		{[]string{"time.Since", "main.(*tracer).now", "main.(*rowSource).gen"}, tracingBucket},
		{[]string{"splitserve/internal/spark/rdd.HashKey"}, "engine"},
		{[]string{"main.(*bench).iterate", "main.run"}, ""},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestTracedRunSharesAndDigest runs every workload untraced and then
// traced: both must pass their checks with the same sim_digest, the CPU
// buckets of the traced run must sum to the whole with no more than
// shareTolerance in no layer, and the payload must stay negligible.
func TestTracedRunSharesAndDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload three times")
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			h := startHeapSampler()
			defer h.close()
			b := &bench{w: w, seed: 7, heap: h, log: io.Discard}
			res := b.measure(time.Nanosecond, true)
			if !res.Correct || res.Failed != 0 || res.Attempted != 3 { // warm-up, timed, traced
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sum := res.Metrics["observability.outputs_share"].Value
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".cpu_share") {
					sum += m.Value
				}
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("CPU buckets sum to %.4f, want 1", sum)
			}
			if other := res.Metrics["other.cpu_share"].Value; other > shareTolerance {
				t.Errorf("other.cpu_share = %.3f, above %.2f", other, shareTolerance)
			}
			if p := res.Metrics["payload.share"].Value; p > 0.02 {
				t.Errorf("payload.share = %.4f: the benchmark is timing the payload", p)
			}
			checkDeclared(t, res.Metrics, declared(t).PerLayer)
		})
	}
}

// TestEndToEndMetricsDeclared: an untraced run prints exactly the
// end-to-end metrics BENCHMARK.json declares, with their units, and none
// reads 0.
func TestEndToEndMetricsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a workload")
	}
	w, _ := workloadByName("shuffle-contended")
	b := &bench{w: w, seed: 7, heap: startHeapSampler(), log: io.Discard}
	defer b.heap.close()
	res := b.measure(time.Nanosecond, false)
	if !res.Correct {
		t.Fatalf("correct=false, %d of %d failed", res.Failed, res.Attempted)
	}
	checkDeclared(t, res.Metrics, declared(t).EndToEnd)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func checkDeclared(t *testing.T, got map[string]metric, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("run printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
}
