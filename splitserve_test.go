package splitserve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smallPageRank() Workload {
	return PageRank(PageRankOptions{Pages: 20_000, Partitions: 8, Iterations: 2})
}

func TestRunHybrid(t *testing.T) {
	res, err := Run(ScenarioHybrid, smallPageRank(), WithCores(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.VMExecutors != 2 || res.LambdaExecutors != 6 {
		t.Fatalf("executor mix = %d/%d, want 2/6", res.VMExecutors, res.LambdaExecutors)
	}
	if res.ExecTime <= 0 || res.CostUSD <= 0 {
		t.Fatalf("degenerate result: %v", res)
	}
	if !strings.Contains(res.Answer, "ranked") {
		t.Fatalf("answer = %q", res.Answer)
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunAllScenarioKinds(t *testing.T) {
	for _, kind := range []ScenarioKind{
		ScenarioSparkSmall, ScenarioSparkFull, ScenarioSparkAutoscale,
		ScenarioQubole, ScenarioSSFullVM, ScenarioSSLambda,
		ScenarioHybrid, ScenarioHybridSegue,
	} {
		res, err := Run(kind, smallPageRank(), WithCores(8, 2), WithSegueAt(10*time.Second))
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if res.ExecTime <= 0 {
			t.Fatalf("kind %d: zero exec time", kind)
		}
	}
}

func TestUnknownScenarioKind(t *testing.T) {
	if _, err := Run(ScenarioKind(99), smallPageRank()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		res, err := Run(ScenarioSSLambda, smallPageRank(), WithCores(8, 0), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestFullVMFasterThanSmall(t *testing.T) {
	full, err := Run(ScenarioSparkFull, smallPageRank(), WithCores(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(ScenarioSparkSmall, smallPageRank(), WithCores(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if small.ExecTime <= full.ExecTime {
		t.Fatalf("r-core run (%v) not slower than R-core run (%v)", small.ExecTime, full.ExecTime)
	}
}

func TestHybridBeatsAutoscale(t *testing.T) {
	// The paper's headline: hybrid launching beats VM autoscaling for
	// latency-critical jobs.
	w := PageRank(PageRankOptions{Pages: 100_000, Partitions: 16, Iterations: 3})
	hybrid, err := Run(ScenarioHybrid, w, WithCores(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	autoscale, err := Run(ScenarioSparkAutoscale, w, WithCores(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.ExecTime >= autoscale.ExecTime {
		t.Fatalf("hybrid (%v) not faster than autoscale (%v)", hybrid.ExecTime, autoscale.ExecTime)
	}
}

func TestTimelineRenders(t *testing.T) {
	res, err := Run(ScenarioHybrid, smallPageRank(), WithCores(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline(60)
	if !strings.Contains(tl, "lambda") || !strings.Contains(tl, "vm") {
		t.Fatalf("timeline missing executor kinds:\n%s", tl)
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, w := range []Workload{
		PageRank(PageRankOptions{}),
		KMeans(KMeansOptions{}),
		SparkPi(SparkPiOptions{}),
		TPCDSQuery("q16"),
		TPCDSQueryAt("q94", 2, 32),
	} {
		if w.Name() == "" || w.DefaultParallelism() <= 0 {
			t.Fatalf("bad workload %T", w)
		}
	}
}

func TestKMeansViaAPI(t *testing.T) {
	w := KMeans(KMeansOptions{Points: 20_000, Dims: 8, K: 5, Partitions: 8})
	res, err := Run(ScenarioSSFullVM, w, WithCores(8, 8), WithWorkerType(M44XLarge))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Answer, "converged") {
		t.Fatalf("answer = %q", res.Answer)
	}
}

func TestSparkPiViaAPI(t *testing.T) {
	w := SparkPi(SparkPiOptions{Darts: 1e9, Partitions: 16})
	res, err := Run(ScenarioSSLambda, w, WithCores(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Answer, "3.14") {
		t.Fatalf("answer = %q", res.Answer)
	}
	if res.LambdaExecutors != 16 {
		t.Fatalf("lambda executors = %d", res.LambdaExecutors)
	}
}

func TestOptionsApply(t *testing.T) {
	res, err := Run(ScenarioSSFullVM, smallPageRank(),
		WithCores(4, 4),
		WithSeed(3),
		WithWorkerType(M410XLarge),
		WithMasterType(M4XLarge),
		WithExecutorMemoryMB(2048),
		WithLambdaTimeout(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMExecutors != 4 {
		t.Fatalf("executors = %d, want 4", res.VMExecutors)
	}
}

func TestWorkDistributionReported(t *testing.T) {
	res, err := Run(ScenarioHybrid, smallPageRank(), WithCores(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.VMTasks == 0 || res.LambdaTasks == 0 {
		t.Fatalf("work distribution missing: vm=%d lambda=%d", res.VMTasks, res.LambdaTasks)
	}
	if res.VMBusy <= 0 || res.LambdaBusy <= 0 {
		t.Fatalf("busy time missing: vm=%v lambda=%v", res.VMBusy, res.LambdaBusy)
	}
}

var update = flag.Bool("update", false, "regenerate the golden files under testdata")

// TestReportGolden pins the telemetry reports `splitserve-sim -report
// json` prints, spans and marks included, for the same workloads, seeds
// and options:
//
//	splitserve-sim -workload pagerank -scenario hybrid-segue -segue-at 5s -lambda-timeout 5s -report json
//	splitserve-sim -workload sparkpi -scenario qubole -report json
//
// The engine's spans and marks are projected from the event stream, so
// the segue run's drain spans and segue/VM marks are covered. Regenerate
// with
//
//	go test . -run ReportGolden -update
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		kind    ScenarioKind
		w       Workload
		segueAt time.Duration
		opts    []Option
	}{
		{"sim_pagerank_hybrid-segue", ScenarioHybridSegue, PageRank(PageRankOptions{Seed: 1}),
			5 * time.Second, []Option{WithLambdaTimeout(5 * time.Second)}},
		{"sim_sparkpi_qubole", ScenarioQubole, SparkPi(SparkPiOptions{Seed: 1}), 45 * time.Second, nil},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			cores := tc.w.DefaultParallelism()
			opts := append([]Option{WithSeed(1), WithSegueAt(tc.segueAt), WithCores(cores, cores/4)}, tc.opts...)
			res, err := Run(tc.kind, tc.w, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.ReportJSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.golden+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s (%d bytes, want %d)", path, len(got), len(want))
			}
		})
	}
}
