package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"splitserve/internal/attrib"
	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/shard"
	"splitserve/internal/tracereplay"
)

var update = flag.Bool("update", false, "rewrite the output goldens under testdata/outputs")

// The goldens under testdata/outputs pin the bytes of the three
// event-derived outputs (-eventlog, -trace, -attrib) for two runs that
// between them reach every writer path: a 4-shard trace replay (shard
// and tenant instants, many apps and pids) and a bridged shuffle-reuse
// stream on a warm pool with the /tmp cache (Lambda-coloured slices,
// warm hits, cache hits and evictions). A third case renders the first
// half of the warm run's log, as a history server would see a run cut
// short, so jobs, stages, tasks and executors are still open and get
// clamped. The files were written by the encoding/json writers the
// hand-written ones replaced; regenerate them only when the simulated
// behaviour changes on purpose, never to absorb a writer difference.
//
//	go test ./cmd/splitserve-cluster -run OutputGoldens -update
func TestOutputGoldens(t *testing.T) {
	warm := warmPoolEvents(t)
	cases := []struct {
		name   string
		events []eventlog.Event
	}{
		{"shard-replay", shardReplayEvents(t)},
		{"warmpool", warm},
		{"warmpool-cut", warm[:len(warm)/2]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var jsonl bytes.Buffer
			if err := eventlog.WriteJSONL(&jsonl, tc.events); err != nil {
				t.Fatalf("WriteJSONL: %v", err)
			}
			trace, err := eventlog.ChromeTrace(tc.events)
			if err != nil {
				t.Fatalf("ChromeTrace: %v", err)
			}
			att, err := attrib.Analyze(tc.events).JSON()
			if err != nil {
				t.Fatalf("attrib JSON: %v", err)
			}
			checkGolden(t, tc.name+".jsonl", jsonl.Bytes())
			checkGolden(t, tc.name+".trace.json", trace)
			checkGolden(t, tc.name+".attrib.json", att)
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "outputs", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Errorf("%s: %d bytes, golden %d; first difference at byte %d", name, len(got), len(want), n)
	}
}

// shardReplayEvents replays the committed 24-row multi-tenant fixture
// through 4 shards, as
// `splitserve-cluster -arrival tracefile:... -shards 4` does.
func shardReplayEvents(t *testing.T) []eventlog.Event {
	t.Helper()
	tr, err := tracereplay.Load(filepath.Join("..", "..", "internal", "tracereplay", "testdata", "multitenant_small.csv"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tracereplay.Specs(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.New(shard.Config{Shards: 4, Cluster: cluster.Config{
		Jobs: specs, PoolCores: 16, Policy: cluster.FairShare(), Strategy: cluster.StrategyBridge,
		SLOFactor: 1.5, Seed: 1, Alloc: "trace",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Events()
}

// warmPoolEvents runs `splitserve-cluster -jobs 3 -mix shufflereuse
// -pool 4 -arrival poisson:12s -warmpool 4 -tmpcache`.
func warmPoolEvents(t *testing.T) []eventlog.Event {
	t.Helper()
	arrivals, err := cluster.ParseArrivals("poisson:12s", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := buildSpecs([]string{"shufflereuse"}, arrivals, []int{8, 8, 8}, make([]*cluster.CostPick, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.New(cluster.Config{
		Jobs: specs, PoolCores: 4, Policy: cluster.FairShare(), Strategy: cluster.StrategyBridge,
		SLOFactor: 1.5, Seed: 1, WarmPool: 4, TmpCache: true, Alloc: "fixed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s.Events().Events()
}
