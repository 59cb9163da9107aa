package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/workloads/sparkpi"
)

// piJob builds a sparkpi workload whose tasks each cost ~taskSecs at
// CostPerDart 0.4 — the same sizing rule the cluster tests use, so runs
// here exercise the same calibrated engine paths.
func piJob(partitions int, taskSecs float64) *sparkpi.Workload {
	return sparkpi.New(sparkpi.Config{
		Darts:               int64(float64(partitions) * taskSecs * 5e7 / 0.4),
		SampledDartsPerTask: 400_000 / partitions,
		Partitions:          partitions,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

// baselines caches cluster.Baseline per job shape — the dominant cost of
// building specs.
var baselines = map[string]time.Duration{}

func testSpec(t *testing.T, tenant string, arrival time.Duration, cores, partitions int, taskSecs float64) cluster.JobSpec {
	t.Helper()
	key := fmt.Sprintf("%d/%g/%d", partitions, taskSecs, cores)
	base, ok := baselines[key]
	if !ok {
		var err error
		base, err = cluster.Baseline(piJob(partitions, taskSecs), cores, 9)
		if err != nil {
			t.Fatalf("Baseline: %v", err)
		}
		baselines[key] = base
	}
	return cluster.JobSpec{
		Workload: piJob(partitions, taskSecs),
		Tenant:   tenant,
		Arrival:  arrival,
		Cores:    cores,
		Baseline: base,
	}
}

// tenantStream is a small deterministic multi-tenant stream: 8 jobs over
// 4 tenants with overlapping arrivals.
func tenantStream(t *testing.T) []cluster.JobSpec {
	t.Helper()
	var specs []cluster.JobSpec
	for i := 0; i < 8; i++ {
		tenant := fmt.Sprintf("t%02d", i%4)
		specs = append(specs, testSpec(t, tenant, time.Duration(i)*2*time.Second, 2, 2, 0.5))
	}
	return specs
}

func jsonl(t *testing.T, events []eventlog.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eventlog.WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// dropShardEvents filters the manager's own three event types, leaving
// what a direct cluster run would have produced.
func dropShardEvents(events []eventlog.Event) []eventlog.Event {
	var out []eventlog.Event
	for _, e := range events {
		switch e.Type {
		case eventlog.ShardAssign, eventlog.ShardSteal, eventlog.TenantReport:
			continue
		}
		out = append(out, e)
	}
	return out
}

// TestShardOf pins the hash rule: deterministic, in range, and spreading
// distinct tenants across shards.
func TestShardOf(t *testing.T) {
	if ShardOf("t00", 1) != 0 {
		t.Fatal("shards=1 must always map to shard 0")
	}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		tenant := fmt.Sprintf("t%02d", i)
		sh := ShardOf(tenant, 4)
		if sh < 0 || sh >= 4 {
			t.Fatalf("ShardOf(%q, 4) = %d, out of range", tenant, sh)
		}
		if sh != ShardOf(tenant, 4) {
			t.Fatalf("ShardOf(%q, 4) not deterministic", tenant)
		}
		seen[sh] = true
	}
	if len(seen) != 4 {
		t.Errorf("64 tenants over 4 shards hit only shards %v", seen)
	}
}

func TestNewValidation(t *testing.T) {
	spec := testSpec(t, "t00", 0, 2, 2, 0.5)
	base := cluster.Config{Jobs: []cluster.JobSpec{spec}, PoolCores: 16, Seed: 1}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero shards", func(c *Config) { c.Shards = 0 }, "Shards must be >= 1"},
		{"no jobs", func(c *Config) { c.Cluster.Jobs = nil }, "no jobs"},
		{"indivisible", func(c *Config) { c.Shards = 3 }, "accepted shard counts"},
		{"owned clock", func(c *Config) { c.Cluster.Clock = simclock.New(simclock.Epoch) }, "owned by the manager"},
		{"owned prefix", func(c *Config) { c.Cluster.IDPrefix = "x-" }, "owned by the manager"},
	} {
		cfg := Config{Shards: 2, Cluster: base}
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// The indivisible error lists the accepted divisors of the pool.
	cfg := Config{Shards: 5, Cluster: base}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "[1 2 4 8 16]") {
		t.Errorf("divisor list missing from error: %v", err)
	}
}

// TestShardsOneReproducesCluster is the compatibility contract: driving a
// stream through the manager with Shards=1 yields a shard-0 cluster
// report and (shard-event-filtered) event log byte-identical to calling
// cluster.Run directly.
func TestShardsOneReproducesCluster(t *testing.T) {
	specs := tenantStream(t)
	ccfg := cluster.Config{Jobs: specs, PoolCores: 8, Seed: 42}

	direct, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	directRep, err := direct.Run()
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := directRep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(Config{Shards: 1, Cluster: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	shardJSON, err := rep.ClusterReports[0].JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON, shardJSON) {
		t.Errorf("shards=1 cluster report differs from direct run:\ndirect:\n%s\nsharded:\n%s", directJSON, shardJSON)
	}
	got := jsonl(t, dropShardEvents(m.Events()))
	want := jsonl(t, direct.Events().Events())
	if !bytes.Equal(got, want) {
		t.Errorf("shards=1 event log differs from direct run (got %d bytes, want %d)", len(got), len(want))
	}
	// The placement events exist and carry the tenant in Exec.
	assigns := 0
	for _, e := range m.Events() {
		if e.Type == eventlog.ShardAssign {
			assigns++
			if e.Exec == "" || !strings.HasPrefix(e.Exec, "t") {
				t.Errorf("shard_assign without tenant: %+v", e)
			}
			if e.Note != "shard=0" {
				t.Errorf("shard_assign note = %q, want shard=0", e.Note)
			}
		}
	}
	if assigns != len(specs) {
		t.Errorf("%d shard_assign events, want %d", assigns, len(specs))
	}
}

// TestSameSeedByteIdentity is the determinism contract for sharded runs:
// same seed, same shard count → byte-identical merged report and merged
// event log.
func TestSameSeedByteIdentity(t *testing.T) {
	run := func() ([]byte, []byte) {
		m, err := New(Config{Shards: 4, Cluster: cluster.Config{
			Jobs: tenantStream(t), PoolCores: 16, Seed: 7,
			Strategy: cluster.StrategyQueue,
		}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, jsonl(t, m.Events())
	}
	rep1, ev1 := run()
	rep2, ev2 := run()
	if !bytes.Equal(rep1, rep2) {
		t.Error("same seed produced different merged reports")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("same seed produced different merged event logs")
	}
}

// TestStealingConservation is the work-stealing property test: over
// randomized tenant streams and shard counts, stealing must never
// double-run or lose a job, never violate any shard's core-pool
// invariants, and the per-tenant table must partition the global
// attainment numerator. Across the sweep at least one steal must occur,
// or the test would vacuously pass.
func TestStealingConservation(t *testing.T) {
	totalSteals := 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, shards := range []int{2, 3, 4} {
			rng := simrand.New(seed * 977)
			nJobs := 10 + int(rng.Uint64()%6)
			var specs []cluster.JobSpec
			for i := 0; i < nJobs; i++ {
				tenant := fmt.Sprintf("t%02d", int(rng.Uint64()%6))
				arrival := time.Duration(rng.Uint64()%8) * time.Second
				cores := 2 + 2*int(rng.Uint64()%2) // 2 or 4
				specs = append(specs, testSpec(t, tenant, arrival, cores, 2, 0.5))
			}
			m, err := New(Config{Shards: shards, Cluster: cluster.Config{
				Jobs: specs, PoolCores: 12, Seed: seed,
				Strategy: cluster.StrategyQueue,
			}})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			totalSteals += rep.Steals

			for _, st := range m.shards {
				if st.sched == nil {
					continue
				}
				if err := st.sched.Pool().CheckInvariants(); err != nil {
					t.Errorf("seed=%d shards=%d: shard %d pool: %v", seed, shards, st.idx, err)
				}
			}
			// Conservation: every submitted job is reported exactly once.
			if rep.Jobs != nJobs {
				t.Errorf("seed=%d shards=%d: %d jobs reported, %d submitted", seed, shards, rep.Jobs, nJobs)
			}
			sumShard, sumSubmitted := 0, 0
			for _, line := range rep.PerShard {
				sumShard += line.Jobs
				sumSubmitted += line.Submitted
			}
			if sumShard != nJobs || sumSubmitted != nJobs {
				t.Errorf("seed=%d shards=%d: per-shard jobs %d / submitted %d, want %d",
					seed, shards, sumShard, sumSubmitted, nJobs)
			}
			tenantJobs, tenantNum := 0, 0
			for _, line := range rep.PerTenant {
				tenantJobs += line.Jobs
				tenantNum += line.Completed - line.SLOViolations
			}
			if tenantJobs != nJobs {
				t.Errorf("seed=%d shards=%d: per-tenant jobs %d, want %d", seed, shards, tenantJobs, nJobs)
			}
			if tenantNum != rep.Completed-rep.SLOViolations {
				t.Errorf("seed=%d shards=%d: Σ tenant (completed−violations) = %d, global = %d",
					seed, shards, tenantNum, rep.Completed-rep.SLOViolations)
			}
			// Steal accounting is symmetric and echoed in events.
			out, in := 0, 0
			for _, line := range rep.PerShard {
				out += line.StolenAway
				in += line.StolenIn
			}
			if out != in || out != rep.Steals {
				t.Errorf("seed=%d shards=%d: steals out=%d in=%d total=%d", seed, shards, out, in, rep.Steals)
			}
			stealEvents := 0
			for _, e := range m.Events() {
				if e.Type == eventlog.ShardSteal {
					stealEvents++
				}
			}
			if stealEvents != rep.Steals {
				t.Errorf("seed=%d shards=%d: %d shard_steal events, report says %d", seed, shards, stealEvents, rep.Steals)
			}
		}
	}
	if totalSteals == 0 {
		t.Error("no steals occurred across the whole sweep; property test is vacuous")
	}
}

// TestMergedEventsOrdered: the k-way merge must yield a time-nondecreasing
// stream covering every shard's events exactly once.
func TestMergedEventsOrdered(t *testing.T) {
	m, err := New(Config{Shards: 4, Cluster: cluster.Config{
		Jobs: tenantStream(t), PoolCores: 16, Seed: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	events := m.Events()
	want := m.bus.Len()
	for _, st := range m.shards {
		if st.sched != nil {
			want += st.sched.Events().Len()
		}
	}
	if len(events) != want {
		t.Fatalf("merged %d events, want %d", len(events), want)
	}
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("merge not time-ordered at %d: %d after %d", i, events[i].TS, events[i-1].TS)
		}
	}
}

// TestRunRecordsNoSpans: no shard's hub records spans or marks, since a
// sharded run exports only reports, event logs and metrics.
func TestRunRecordsNoSpans(t *testing.T) {
	m, err := New(Config{Shards: 4, Cluster: cluster.Config{
		Jobs: tenantStream(t), PoolCores: 16, Seed: 7,
		Strategy: cluster.StrategyBridge,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range m.shards {
		if sh.sched == nil {
			continue
		}
		tr := sh.sched.Telemetry().Tracer()
		if spans, marks := len(tr.Spans()), len(tr.Marks()); spans != 0 || marks != 0 {
			t.Errorf("shard %d hub tracer holds %d spans and %d marks, want 0 and 0", sh.idx, spans, marks)
		}
	}
}
