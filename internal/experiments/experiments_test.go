package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
	"splitserve/internal/workloads/pagerank"
	"splitserve/internal/workloads/sparkpi"
)

// smallWorkload is a fast PageRank for scenario-machinery tests.
func smallWorkload() *pagerank.Workload {
	cfg := pagerank.DefaultConfig()
	cfg.Pages = 20_000
	cfg.Partitions = 8
	cfg.Iterations = 2
	return pagerank.New(cfg)
}

func TestScenarioNames(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{SparkSmallVM, "Spark 8 VM"},
		{SparkFullVM, "Spark 32 VM"},
		{SparkAutoscale, "Spark 8/32 autoscale"},
		{QuboleLambda, "Qubole 32 La"},
		{SSFullVM, "SS 32 VM"},
		{SSLambda, "SS 32 La"},
		{SSHybrid, "SS 8 VM / 24 La"},
		{SSHybridSegue, "SS 8 VM / 24 La Segue"},
	}
	for _, tt := range tests {
		sc := Scenario{Kind: tt.kind, R: 32, SmallR: 8}
		if got := sc.Name(); got != tt.want {
			t.Errorf("Name(%d) = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestRunRejectsZeroR(t *testing.T) {
	if _, err := Run(Scenario{Kind: SparkFullVM}, smallWorkload()); err == nil {
		t.Fatal("R=0 accepted")
	}
}

func TestRunProducesCostBreakdown(t *testing.T) {
	res, err := Run(Scenario{Kind: SSHybrid, R: 8, SmallR: 2, Seed: 1}, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.ByKind["vm"] <= 0 || res.ByKind["lambda"] <= 0 {
		t.Fatalf("cost breakdown = %v, want vm and lambda components", res.ByKind)
	}
}

func TestQuboleBillsS3(t *testing.T) {
	res, err := Run(Scenario{Kind: QuboleLambda, R: 8, Seed: 1}, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.ByKind["s3"] <= 0 {
		t.Fatalf("Qubole run billed no S3 requests: %v", res.ByKind)
	}
	if res.ByKind["vm"] != 0 {
		t.Fatalf("all-Lambda run billed VM time: %v", res.ByKind)
	}
}

func TestProcuredVMBilledInFull(t *testing.T) {
	// Autoscale procures VMs; their cost must appear even though the
	// pre-existing workers are billed per used core. The job must be long
	// enough for the backlog-driven ramp to trigger.
	cfg := pagerank.DefaultConfig()
	cfg.Pages = 20_000
	cfg.Partitions = 8
	cfg.Iterations = 2
	cfg.WorkScale = 60
	w := pagerank.New(cfg)
	auto, err := Run(Scenario{Kind: SparkAutoscale, R: 8, SmallR: 2, VMBoot: 5 * time.Second, Seed: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(Scenario{Kind: SparkSmallVM, R: 8, SmallR: 2, Seed: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if auto.CostUSD <= static.CostUSD {
		t.Fatalf("autoscale cost %.4f not above static %.4f", auto.CostUSD, static.CostUSD)
	}
	if auto.ExecTime >= static.ExecTime {
		t.Fatalf("autoscale (%v) not faster than static under-provisioning (%v)", auto.ExecTime, static.ExecTime)
	}
}

func TestFigure1Shape(t *testing.T) {
	pts := Figure1(time.Second, 2*time.Minute)
	if len(pts) != 120 {
		t.Fatalf("points = %d", len(pts))
	}
	// Lambda cheaper early, VM cheaper late (the paper's crossover).
	first, last := pts[4], pts[len(pts)-1]
	if first.LambdaUSD >= first.VMvCPUUSD {
		t.Fatal("no early lambda advantage")
	}
	if last.LambdaUSD <= last.VMvCPUUSD {
		t.Fatal("no late VM advantage")
	}
}

func TestFigure2Policies(t *testing.T) {
	f := Figure2()
	if f.Series.Len() == 0 || len(f.Policies) != 3 {
		t.Fatalf("bad figure 2: %d samples, %d policies", f.Series.Len(), len(f.Policies))
	}
	if f.Policies[0].VMCostUSD >= f.Policies[2].VMCostUSD {
		t.Fatal("k=0 should buy fewer VM core-hours than k=2")
	}
}

func TestSpeedupHelper(t *testing.T) {
	results := []*Result{
		{Scenario: "A", ExecTime: 100 * time.Second},
		{Scenario: "B", ExecTime: 45 * time.Second},
	}
	imp, err := Speedup(results, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if imp < 0.54 || imp > 0.56 {
		t.Fatalf("Speedup = %v, want 0.55", imp)
	}
	if _, err := Speedup(results, "A", "missing"); err == nil {
		t.Fatal("missing scenario accepted")
	}
}

func TestFormatters(t *testing.T) {
	res := []*Result{
		{Scenario: "Spark 8 VM", Workload: "w", ExecTime: 10 * time.Second, CostUSD: 0.01},
		{Scenario: "SS 8 VM / 24 La", Workload: "w", ExecTime: 5 * time.Second, CostUSD: 0.02},
	}
	out := FormatResults("t", res, "Spark 8 VM")
	if !strings.Contains(out, "Spark 8 VM") || !strings.Contains(out, "0.50x") {
		t.Fatalf("FormatResults:\n%s", out)
	}
	out = FormatResultsByWorkload("t", res, "Spark 8 VM")
	if !strings.Contains(out, "t: w") {
		t.Fatalf("FormatResultsByWorkload:\n%s", out)
	}
	prof := FormatProfile("p", []ProfilePoint{{Pages: 1, Parallelism: 2, ExecTime: time.Second}})
	if !strings.Contains(prof, "parallelism") {
		t.Fatalf("FormatProfile:\n%s", prof)
	}
	tr := FormatTrials("x", []TrialStats{{Scenario: "s", MeanTime: time.Second, Trials: 3}})
	if !strings.Contains(tr, "trials") {
		t.Fatalf("FormatTrials:\n%s", tr)
	}
}

func TestAverageByScenario(t *testing.T) {
	res := []*Result{
		{Scenario: "A", ExecTime: 10 * time.Second},
		{Scenario: "A", ExecTime: 20 * time.Second},
		{Scenario: "B", ExecTime: 30 * time.Second},
	}
	avg := AverageByScenario(res)
	if avg["A"] != 15*time.Second || avg["B"] != 30*time.Second {
		t.Fatalf("avg = %v", avg)
	}
	names := ScenarioNames(res)
	if len(names) != 2 || names[0] != "A" {
		t.Fatalf("names = %v", names)
	}
}

func TestSegueScenarioUsesBothSubstratesThenVMs(t *testing.T) {
	cfg := pagerank.DefaultConfig()
	cfg.Pages = 120_000
	cfg.Partitions = 8
	cfg.Iterations = 4
	cfg.WorkScale = 10
	sc := Scenario{
		Kind: SSHybridSegue, R: 8, SmallR: 2,
		WorkerVMType:  cloud.M44XLarge,
		SegueAt:       20 * time.Second,
		LambdaTimeout: 15 * time.Second,
		Seed:          1,
	}
	res, err := Run(sc, pagerank.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambdas == 0 {
		t.Fatal("segue scenario launched no lambdas")
	}
	// Replacement VM executors must have registered beyond the initial r.
	if res.VMExecs <= sc.SmallR {
		t.Fatalf("no VM replacements: %d VM executors", res.VMExecs)
	}
}

func TestFigure9SmallSanity(t *testing.T) {
	// A scaled-down Figure 9-style comparison: all-lambda SparkPi should
	// be close to all-VM SparkPi (no shuffle).
	cfg := sparkpi.DefaultConfig()
	cfg.Darts = 1e9
	cfg.Partitions = 16
	vm, err := Run(Scenario{Kind: SSFullVM, R: 16, SmallR: 16, Seed: 1}, sparkpi.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	la, err := Run(Scenario{Kind: SSLambda, R: 16, Seed: 1}, sparkpi.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ratio := la.ExecTime.Seconds() / vm.ExecTime.Seconds()
	if ratio > 1.5 {
		t.Fatalf("no-shuffle lambda/vm ratio = %.2f, want ~1", ratio)
	}
}

func TestExtensionBurScale(t *testing.T) {
	rows, err := ExtensionBurScale(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	hybrid, full, depleted := rows[0], rows[1], rows[2]
	// Healthy standbys are competitive with the hybrid (BurScale's claim).
	if full.ExecTime > hybrid.ExecTime*2 {
		t.Fatalf("credit-full standbys uncompetitive: %v vs hybrid %v", full.ExecTime, hybrid.ExecTime)
	}
	// Depleted standbys are much worse — the token-state risk the paper
	// notes SplitServe does not face.
	if depleted.ExecTime <= full.ExecTime*3/2 {
		t.Fatalf("depleted standbys not penalised: %v vs %v", depleted.ExecTime, full.ExecTime)
	}
}

// TestRunTelemetryReportDeterministic runs the same scenario twice and
// requires byte-identical telemetry reports: every span, mark, counter and
// histogram must come out of the simulation in exactly the same order with
// exactly the same values.
func TestRunTelemetryReportDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := Run(Scenario{Kind: SSHybridSegue, R: 8, SmallR: 2, Seed: 1,
			SegueAt: 5 * time.Second}, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := res.Telem.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("two identical runs produced different telemetry reports")
	}
}

// TestRunEventLogDeterministic requires the structured event log to be
// byte-identical across same-seed runs — the property that makes saved
// logs trustworthy replay artifacts for splitserve-history.
func TestRunEventLogDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		res, err := Run(Scenario{Kind: SSHybridSegue, R: 8, SmallR: 2, Seed: seed,
			SegueAt: 5 * time.Second}, smallWorkload())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := res.Events.JSONL()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(1), run(1)
	if !bytes.Equal(a, b) {
		t.Error("two identical runs produced different event logs")
	}
	if len(a) == 0 {
		t.Fatal("event log is empty")
	}
	// The stream must round-trip and carry the core lifecycle vocabulary.
	events, err := eventlog.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	seen := map[eventlog.Type]bool{}
	for _, e := range events {
		seen[e.Type] = true
	}
	for _, want := range []eventlog.Type{
		eventlog.JobStart, eventlog.JobEnd, eventlog.StageStart, eventlog.StageEnd,
		eventlog.TaskStart, eventlog.TaskEnd, eventlog.ExecutorAdd,
		eventlog.LambdaInvoke, eventlog.ShuffleWrite,
	} {
		if !seen[want] {
			t.Errorf("event log missing %s events", want)
		}
	}
}

// TestRunDetachesSpanBridge runs on a caller's bus, which outlives the
// run: once Run returns, the run's span bridge must have left the bus, so
// later events on it no longer reach the finished run's tracer.
func TestRunDetachesSpanBridge(t *testing.T) {
	bus := eventlog.NewBus(simclock.Epoch)
	res, err := Run(Scenario{Kind: SSHybrid, R: 8, SmallR: 2, Seed: 1, Events: bus, AppID: "shared"},
		smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	marks := len(res.Telem.Tracer().Marks())
	e := eventlog.Ev(eventlog.Segue)
	e.App = "shared"
	bus.Emit(simclock.Epoch, e)
	if got := len(res.Telem.Tracer().Marks()); got != marks {
		t.Fatalf("an event emitted after Run reached its tracer: %d marks, want %d", got, marks)
	}
}

// TestRunTelemetryCoverage checks the report carries the signals the paper's
// analysis needs: per-stage scheduling latency, shuffle bytes, and executor
// launch spans on both substrates.
func TestRunTelemetryCoverage(t *testing.T) {
	res, err := Run(Scenario{Kind: SSHybrid, R: 8, SmallR: 2, Seed: 1}, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Telem.Report()

	var schedStages, shuffleWritten int
	for _, h := range rep.Histograms {
		if h.Name == "engine_sched_latency_seconds" && h.Labels["stage"] != "" {
			schedStages++
		}
	}
	if schedStages == 0 {
		t.Error("no per-stage engine_sched_latency_seconds histograms")
	}
	for _, c := range rep.Counters {
		if c.Name == "shuffle_bytes_written_total" && c.Value > 0 {
			shuffleWritten++
		}
	}
	if shuffleWritten == 0 {
		t.Error("no positive shuffle_bytes_written_total counters")
	}
	launchKinds := map[string]bool{}
	for _, s := range rep.Spans {
		if s.Component == "executor" && s.Name == "launch" {
			launchKinds[s.Labels["kind"]] = true
		}
	}
	if !launchKinds["vm"] || !launchKinds["lambda"] {
		t.Errorf("executor launch spans missing a kind: got %v", launchKinds)
	}
}

// TestFigure7Golden pins the Figure-7 timelines, a projection of each
// run's event stream, to the text splitserve-bench -fig 7 prints.
// Regenerate with
//
//	go test ./internal/experiments -run Figure7Golden -update
func TestFigure7Golden(t *testing.T) {
	res, err := Figure7(1)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatFigure7(res)
	path := filepath.Join("testdata", "fig7.golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("Figure 7 drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
