GO ?= go

.PHONY: build test check vet race fuzz sim bench smoke attrib warmsweep shardreplay loadbench perf

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fuzz gives each native fuzz target a short budget — enough to catch
# parser panics without turning CI into a fuzzing farm.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/simclock -run '^$$' -fuzz FuzzTimerWheel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -run '^$$' -fuzz FuzzNetwork -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzParseArrivals -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracereplay -run '^$$' -fuzz FuzzParseTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/costmgr -run '^$$' -fuzz FuzzLoadProfiles -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cliutil -run '^$$' -fuzz FuzzValidateReport -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventlog -run '^$$' -fuzz FuzzReadJSONL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventlog -run '^$$' -fuzz FuzzOutputEncoders -fuzztime $(FUZZTIME)
	$(GO) test ./internal/attrib -run '^$$' -fuzz FuzzParseReport -fuzztime $(FUZZTIME)
	$(GO) test ./internal/perfstat -run '^$$' -fuzz FuzzParseSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/loadbench -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

# check is the full pre-commit gate: static analysis, the whole test suite
# under the race detector (twice, to shake out ordering dependence), a
# short fuzz budget per target, then the event-log smoke round-trip.
check:
	$(GO) vet ./... && $(GO) test -race -count=2 ./...
	$(MAKE) fuzz
	$(MAKE) smoke
	$(MAKE) attrib
	$(MAKE) shardreplay

# smoke round-trips the observability pipeline (run a small cluster day,
# save its event log, replay it through splitserve-history, convert it to
# a Chrome trace), the cost manager (profile one workload, then let
# -cores auto schedule from the curves), and the warm-pool substrate (a
# bridged shuffle-reuse stream on a warm pool with the /tmp cache, whose
# event log must carry the new vocabulary and replay cleanly). CI uploads
# smoke/trace.json, smoke/profiles.json and smoke/cluster-report.json as
# artifacts.
smoke:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix sparkpi -pool 8 \
		-eventlog smoke/events.jsonl > /dev/null
	$(GO) run ./cmd/splitserve-history -log smoke/events.jsonl \
		-trace smoke/trace.json
	@test -s smoke/trace.json && echo "smoke: event log replayed, trace written to smoke/trace.json"
	$(GO) run ./cmd/splitserve-profile -out smoke/profiles.json -workloads sparkpi
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix sparkpi -pool 8 \
		-cores auto -profiles smoke/profiles.json -alloc min-cost \
		-report json > smoke/cluster-report.json
	@grep -q '"alloc": "min-cost"' smoke/cluster-report.json \
		&& echo "smoke: profile -> schedule round trip OK (smoke/cluster-report.json)"
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix shufflereuse -pool 4 \
		-arrival poisson:12s -warmpool 4 -tmpcache \
		-eventlog smoke/warm-events.jsonl > /dev/null
	@grep -q '"type":"lambda_warm_hit"' smoke/warm-events.jsonl \
		&& grep -q '"type":"tmp_cache_hit"' smoke/warm-events.jsonl \
		&& grep -q '"type":"warmpool_resize"' smoke/warm-events.jsonl \
		&& echo "smoke: warm-pool event vocabulary present in smoke/warm-events.jsonl"
	$(GO) run ./cmd/splitserve-history -log smoke/warm-events.jsonl \
		-trace smoke/warm-trace.json
	@test -s smoke/warm-trace.json && echo "smoke: warm-pool event log replayed, trace written to smoke/warm-trace.json"

# attrib smokes the causal-attribution pipeline (OBSERVABILITY.md,
# Layer 4): run a small cluster day, write its attribution report,
# render the /attrib waterfall HTML, then diff the report against itself
# — which must come out all-zeros ("no change"). CI uploads
# smoke/attrib.json and smoke/attrib.html as artifacts.
attrib:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster -jobs 3 -mix sparkpi -pool 8 \
		-eventlog smoke/attrib-events.jsonl -attrib smoke/attrib.json > /dev/null
	$(GO) run ./cmd/splitserve-history -log smoke/attrib-events.jsonl \
		-attribhtml smoke/attrib.html > /dev/null
	@test -s smoke/attrib.json && test -s smoke/attrib.html \
		&& echo "attrib: report written to smoke/attrib.json, waterfall to smoke/attrib.html"
	@$(GO) run ./cmd/splitserve-history -diff smoke/attrib.json smoke/attrib.json \
		| grep -q 'no change' \
		&& echo "attrib: self-diff is all zeros"

# shardreplay smokes the sharded control plane: replay the committed
# production-shape trace fixture across 4 shards with -validate (the
# per-tenant distributions must match exactly), and check the merged
# event log carries the sharding vocabulary. It then runs the legacy
# OFFSET,CORES,TENANT tracefile fixture, whose TENANT column routes it
# across 2 shards, and checks each parser warning is printed once. CI
# uploads the merged report and event log as artifacts.
shardreplay:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster \
		-arrival tracefile:internal/tracereplay/testdata/multitenant_small.csv \
		-shards 4 -validate -report json \
		-eventlog smoke/shard-events.jsonl > smoke/shard-report.json
	@grep -q '"type":"shard_assign"' smoke/shard-events.jsonl \
		&& grep -q '"type":"shard_steal"' smoke/shard-events.jsonl \
		&& grep -q '"type":"tenant_report"' smoke/shard-events.jsonl \
		&& echo "shardreplay: sharding event vocabulary present in smoke/shard-events.jsonl"
	@grep -q '"schema": "splitserve-shard/v1"' smoke/shard-report.json \
		&& echo "shardreplay: merged report written to smoke/shard-report.json"
	$(GO) run ./cmd/splitserve-history -log smoke/shard-events.jsonl \
		-trace smoke/shard-trace.json
	@test -s smoke/shard-trace.json && echo "shardreplay: sharded event log replayed, trace written to smoke/shard-trace.json"
	$(GO) run ./cmd/splitserve-cluster \
		-arrival tracefile:internal/tracereplay/testdata/legacy_small.csv \
		-mix sparkpi -pool 8 -cores 4 -shards 2 -report json \
		> smoke/legacy-report.json 2> smoke/legacy-stderr.txt
	@grep -q '"schema": "splitserve-shard/v1"' smoke/legacy-report.json \
		&& test "$$(grep -c 'skipped header' smoke/legacy-stderr.txt)" = 1 \
		&& test "$$(grep -c 'out of order' smoke/legacy-stderr.txt)" = 1 \
		&& echo "shardreplay: legacy tracefile replayed across 2 shards, each warning printed once"

# warmsweep regenerates the warm-pool crossover table (EXPERIMENTS.md,
# "Warm-pool Lambda with a /tmp shuffle cache tier"). CI uploads the
# report as an artifact.
warmsweep:
	mkdir -p smoke
	$(GO) run ./cmd/splitserve-cluster -warmsweep | tee smoke/warmsweep.txt
	@grep -q 'crossover:' smoke/warmsweep.txt \
		&& echo "warmsweep: crossover table written to smoke/warmsweep.txt"

sim:
	$(GO) run ./cmd/splitserve-sim

# bench regenerates the paper figures, then runs the Go figure benchmarks
# once with the BENCH_JSON recorder on, so the custom metrics (sim-seconds,
# usd, ...) land in bench-metrics.json instead of only scrolling past.
bench:
	$(GO) run ./cmd/splitserve-bench
	BENCH_JSON=bench-metrics.json $(GO) test -run '^$$' \
		-bench '^Benchmark(Fig|Ablation|Extension)' -benchtime 1x .
	@test -s bench-metrics.json && echo "bench: custom metrics written to bench-metrics.json"

# loadbench measures the simulator's own event-loop throughput and writes
# the BENCH_<label>.json trajectory point (see OBSERVABILITY.md, Layer 3).
# CI runs it with small counts; the committed BENCH_baseline.json uses the
# full 100,1000,10000.
LOADBENCH_JOBS ?= 100,1000,10000
LOADBENCH_LABEL ?= dev
loadbench:
	$(GO) run ./cmd/splitserve-loadbench -jobs $(LOADBENCH_JOBS) -label $(LOADBENCH_LABEL)

# perf runs the simulator-cost benchmark (perfbench/README.md) once per
# workload BENCHMARK.json declares (read with jq), untraced (--trace 0,
# end-to-end metrics) and traced (--trace 1, adding the per-layer
# breakdown), with a 3 s budget: a check that every workload still builds, runs and passes
# its own checks, not a measurement. Measure with --seconds 36 and
# repeated seeds, as perfbench/README.md describes.
perf:
	@ws=$$(jq -r '.workloads[].name' BENCHMARK.json) && for w in $$ws; do \
		for tr in 0 1; do \
			echo "perf: $$w --trace $$tr"; \
			bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 --trace $$tr || exit 1; \
		done; \
	done
