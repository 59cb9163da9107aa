// Command splitserve-cluster runs the multi-job cluster scheduler: a
// stream of real task-graph jobs (Poisson, uniform, bursty, explicit
// trace or CSV tracefile arrivals) against one shared VM pool, with
// pluggable sharing policies and the paper's three shortfall strategies:
//
//	splitserve-cluster -jobs 12 -arrival poisson:45s -policy fair -strategy bridge
//	splitserve-cluster -mix sparkpi,tpcds -pool 32 -slo 1.3 -report json
//	splitserve-cluster -cores auto -profiles profiles.json -alloc min-cost
//	splitserve-cluster -warmpool 4 -tmpcache -mix shufflereuse
//	splitserve-cluster -warmsweep
//	splitserve-cluster -compare
//	splitserve-cluster -shards 4 -tenants 6 -jobs 40
//	splitserve-cluster -arrival tracefile:trace.csv -shards 4 -validate
//	splitserve-cluster -shardsweep
//
// With -cores auto the cost manager sizes each arriving job from the
// profile curves written by `splitserve-profile -out` instead of taking
// a fixed R. Same seed, same flags → byte-identical -report json output.
//
// Multi-tenant runs go through the sharded control plane: -tenants N
// labels the stream round-robin, a tracefile TENANT column labels it per
// row, and a production-shaped 4-column trace (tenant,arrival,runtime,
// cores — see internal/tracereplay) is replayed wholesale, with -validate
// checking the replay against the trace's per-tenant distributions.
// -shards N partitions the pool across N scheduler instances by tenant
// hash, with work-stealing between them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"splitserve/internal/cliutil"
	"splitserve/internal/cluster"
	"splitserve/internal/costmgr"
	"splitserve/internal/experiments"
	"splitserve/internal/perfstat"
	"splitserve/internal/shard"
	"splitserve/internal/tracereplay"
	"splitserve/internal/workloads"
)

func mixNames() string { return strings.Join(experiments.MixNames(), ", ") }

// parseMix resolves a comma-separated workload mix against the
// experiments mix factories.
func parseMix(spec string) ([]string, error) {
	var out []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := experiments.MixWorkload(name); !ok {
			return nil, fmt.Errorf("unknown workload %q in -mix (accepted: %s)", name, mixNames())
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -mix (accepted: %s)", mixNames())
	}
	return out, nil
}

// buildSpecs calibrates one baseline per (mix entry, core count) and
// assembles the round-robin job stream. cores[i] and picks[i] size job i
// (picks entries may be nil — fixed-cores jobs carry no decision).
func buildSpecs(mix []string, arrivals []time.Duration, cores []int, picks []*cluster.CostPick, seed uint64) ([]cluster.JobSpec, error) {
	type baseKey struct {
		name  string
		cores int
	}
	mk := func(name string, seed uint64) workloads.Workload {
		factory, _ := experiments.MixWorkload(name)
		return factory(seed)
	}
	baselines := make(map[baseKey]time.Duration)
	specs := make([]cluster.JobSpec, len(arrivals))
	for i, at := range arrivals {
		name := mix[i%len(mix)]
		k := baseKey{name, cores[i]}
		base, ok := baselines[k]
		if !ok {
			var err error
			base, err = cluster.Baseline(mk(name, seed), cores[i], seed)
			if err != nil {
				return nil, fmt.Errorf("baseline %s x%d: %w", name, cores[i], err)
			}
			baselines[k] = base
		}
		specs[i] = cluster.JobSpec{
			Name:     name,
			Workload: mk(name, seed+uint64(i)),
			Cores:    cores[i],
			Arrival:  at,
			Baseline: base,
			Pick:     picks[i],
		}
	}
	return specs, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jobs       = flag.Int("jobs", 8, "number of jobs in the stream")
		mixSpec    = flag.String("mix", "sparkpi,pagerank,kmeans", "comma-separated workload mix: "+mixNames())
		arrival    = flag.String("arrival", "poisson:45s", "arrival process: poisson:MEAN | uniform:GAP | bursty:KxGAP | trace:D1,D2,... | tracefile:PATH")
		policy     = flag.String("policy", "fair", "core-sharing policy: fifo | fair")
		strategy   = flag.String("strategy", "bridge", "shortfall strategy: queue | autoscale | bridge")
		slo        = flag.Float64("slo", 1.5, "SLO factor: deadline = factor x full-provisioning baseline")
		pool       = flag.Int("pool", 16, "shared VM pool size in cores")
		cores      = flag.String("cores", "8", "per-job core demand R, or \"auto\" to let the cost manager size each job (-profiles)")
		profiles   = flag.String("profiles", "", "profile file from `splitserve-profile -out` (required with -cores auto)")
		alloc      = flag.String("alloc", "min-cost", "cost-manager policy with -cores auto: min-cost | min-time | knee")
		budget     = flag.Float64("budget", 0, "per-job predicted-cost cap in USD for -alloc min-time (0 = uncapped)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		report     = flag.String("report", "", "emit the run report: json | prom (default: summary table)")
		compare    = flag.Bool("compare", false, "run the day-long strategy comparison (mirrors splitserve-bench -daysim with real DAGs)")
		costcmp    = flag.Bool("costcompare", false, "run the fixed-R vs cost-manager comparison (requires -profiles)")
		scaledown  = flag.Duration("scaledown", 0, "release autoscale-procured VMs idle for this long back to the provider (0 disables)")
		admission  = flag.String("admission", "greedy", "admission policy: greedy | deadline (delay or shed jobs whose SLO is unattainable)")
		elastic    = flag.Bool("elastic", false, "run the elasticity comparison: keep-forever vs -scaledown vs -scaledown plus deadline admission")
		warmPool   = flag.Int("warmpool", 0, "provision this many warm Lambda environments (provisioned concurrency; 0 disables)")
		tmpCache   = flag.Bool("tmpcache", false, "serve repeat shuffle reads from warm environments' /tmp cache tier (needs -warmpool)")
		warmsweep  = flag.Bool("warmsweep", false, "run the warm-pool crossover sweep: VM autoscale vs cold Lambda vs warm+cached Lambda per arrival rate x shuffle reuse")
		coldstart  = flag.Bool("coldstarts", false, "model a cold ambient Lambda fleet: first invocations pay the full cold-start latency (default: always-warm ambient environments)")
		shards     = flag.Int("shards", 1, "control-plane shards: the pool splits evenly across this many scheduler instances keyed by tenant hash (>1 requires tenant labels)")
		tenants    = flag.Int("tenants", 0, "label the job stream with this many synthetic tenants (t00, t01, ... round-robin); 0 leaves it untenanted")
		validate   = flag.Bool("validate", false, "after replaying a production trace, check the merged report against the trace's per-tenant distributions (exit 1 on mismatch)")
		shardsweep = flag.Bool("shardsweep", false, "run the shard-scaling sweep: one skewed multi-tenant stream at 1, 2 and 4 shards")
		eventLog   = flag.String("eventlog", "", cliutil.EventLogUsage)
		trace      = flag.String("trace", "", cliutil.TraceUsage)
		attribF    = flag.String("attrib", "", cliutil.AttribUsage)
	)
	perf := cliutil.RegisterPerfFlags(nil)
	flag.Parse()

	if err := cliutil.ValidateReport(*report); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}

	// Validate the shared vocabulary flags up front — unknown names must
	// fail with the accepted list whichever subcommand runs, never fall
	// back silently.
	pol, err := cluster.PolicyByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	strat, err := cluster.StrategyByName(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	adm, err := cluster.AdmissionByName(*admission)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	allocPol, err := costmgr.PolicyByName(*alloc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	if *scaledown < 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: negative -scaledown %s (0 disables)\n", *scaledown)
		return 2
	}
	if *warmPool < 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: negative -warmpool %d (0 disables)\n", *warmPool)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: bad -shards %d (want >= 1)\n", *shards)
		return 2
	}
	if *pool%*shards != 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: -shards %d does not divide the %d-core pool evenly (accepted shard counts: %v)\n",
			*shards, *pool, shard.Divisors(*pool))
		return 2
	}
	if *tenants < 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: negative -tenants %d (0 leaves the stream untenanted)\n", *tenants)
		return 2
	}
	perf.Label = *strategy + "/" + *mixSpec
	prof, err := perf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	defer perf.Stop()
	// The comparison subcommands run through experiments; route the
	// collector to them via the package-level hook.
	experiments.SetProfiler(prof)
	writePerf := func() int {
		if err := perf.WriteSnapshot(prof); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		return 0
	}

	if *compare {
		reps, err := experiments.ClusterComparison(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== multi-job day: shortfall strategies on one shared pool, real DAGs ==")
		fmt.Print(experiments.FormatClusterComparison(reps))
		return writePerf()
	}

	if *elastic {
		idle := *scaledown
		if idle <= 0 {
			idle = 45 * time.Second
		}
		reps, err := experiments.ClusterElasticity(*seed, idle)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== elasticity: keep-forever vs idle scale-down vs deadline admission ==")
		fmt.Print(experiments.FormatClusterElasticity(reps))
		return writePerf()
	}

	if *warmsweep {
		cells, err := experiments.WarmPoolComparison(*seed, experiments.WarmPoolSweepConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== warm pool: VM autoscale vs cold Lambda vs warm+cached Lambda ==")
		fmt.Print(experiments.FormatWarmPoolComparison(cells))
		return writePerf()
	}

	if *shardsweep {
		reps, err := experiments.ShardScaling(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== sharded control plane: one skewed multi-tenant stream at 1, 2 and 4 shards ==")
		fmt.Print(experiments.FormatShardScaling(reps))
		return writePerf()
	}

	if *costcmp {
		if *profiles == "" {
			fmt.Fprintln(os.Stderr, "splitserve-cluster: -costcompare requires -profiles (run splitserve-profile -out first)")
			return 2
		}
		f, err := costmgr.Load(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		runs, err := experiments.CostManagerComparison(*seed, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== cost manager: fixed per-job R vs profile-driven allocation ==")
		fmt.Print(experiments.FormatCostManagerComparison(runs))
		return writePerf()
	}

	// A tracefile is read once, whatever its shape. A production-shaped
	// trace (tenant,arrival,runtime,cores) is replayed wholesale: every
	// row becomes a job sized to its traced runtime and demand, so
	// -jobs/-mix/-cores do not apply.
	var tr *tracereplay.Trace
	if path, ok := strings.CutPrefix(*arrival, "tracefile:"); ok {
		if tr, err = readTracefile(path, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 2
		}
	}
	if tr != nil && !tr.Legacy {
		specs, err := tracereplay.Specs(tr, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		return runSharded(shardedArgs{
			shards: *shards, pool: *pool, policy: pol, strategy: strat,
			slo: *slo, seed: *seed, admission: adm, scaledown: *scaledown,
			warmPool: *warmPool, tmpCache: *tmpCache, coldStarts: *coldstart,
			alloc: "trace", prof: prof, specs: specs, report: *report,
			eventLog: *eventLog, trace: *trace, attribF: *attribF,
			prodTrace: tr, validate: *validate, writePerf: writePerf,
		})
	}
	if *validate {
		fmt.Fprintln(os.Stderr, "splitserve-cluster: -validate requires a production trace (-arrival tracefile:PATH with tenant,arrival,runtime,cores rows)")
		return 2
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}

	auto := *cores == "auto"
	fixedCores := 0
	if !auto {
		fixedCores, err = strconv.Atoi(*cores)
		if err != nil || fixedCores < 1 {
			fmt.Fprintf(os.Stderr, "splitserve-cluster: bad -cores %q (want a positive integer or \"auto\")\n", *cores)
			return 2
		}
	} else if *profiles == "" {
		fmt.Fprintln(os.Stderr, "splitserve-cluster: -cores auto requires -profiles (run splitserve-profile -out first)")
		return 2
	}

	// A legacy tracefile gives the arrivals, and may pin some jobs' core
	// demand and tenant per row.
	var arrivals []time.Duration
	var traceRows []tracereplay.Row
	if tr != nil {
		traceRows = tr.Rows
		for _, row := range traceRows {
			arrivals = append(arrivals, row.Arrival)
		}
	} else if arrivals, err = cluster.ParseArrivals(*arrival, *jobs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}

	coreList := make([]int, len(arrivals))
	picks := make([]*cluster.CostPick, len(arrivals))
	allocLabel := "fixed"
	if auto {
		f, err := costmgr.Load(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		mgr, err := costmgr.NewManager(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		allocLabel = allocPol.String()
		for i := range arrivals {
			name := mix[i%len(mix)]
			d, err := mgr.Decide(allocPol, costmgr.Request{
				Workload:  name,
				MaxCores:  *pool,
				Fallback:  8,
				SLOFactor: *slo,
				BudgetUSD: *budget,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
				return 1
			}
			coreList[i] = d.Cores
			picks[i] = &cluster.CostPick{
				Policy:           d.Policy,
				PredictedRun:     d.PredictedRun(),
				PredictedCostUSD: d.PredictedCostUSD,
				Source:           d.Source,
			}
		}
	} else {
		for i := range coreList {
			coreList[i] = fixedCores
		}
	}
	pinCores(coreList, picks, traceRows)

	specs, err := buildSpecs(mix, arrivals, coreList, picks, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}

	tenanted := labelTenants(specs, traceRows, *tenants)
	if *shards > 1 && !tenanted {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: -shards %d needs tenant labels (use -tenants N or a tracefile TENANT column)\n", *shards)
		return 2
	}
	// Any tenant label routes the run through the sharded control plane —
	// even at -shards 1 — so per-tenant reporting is uniform. Untenanted
	// single-shard runs keep the direct scheduler path below byte for byte.
	if tenanted {
		return runSharded(shardedArgs{
			shards: *shards, pool: *pool, policy: pol, strategy: strat,
			slo: *slo, seed: *seed, admission: adm, scaledown: *scaledown,
			warmPool: *warmPool, tmpCache: *tmpCache, coldStarts: *coldstart,
			alloc: allocLabel, prof: prof, specs: specs, report: *report,
			eventLog: *eventLog, trace: *trace, attribF: *attribF,
			writePerf: writePerf,
		})
	}

	s, err := cluster.New(cluster.Config{
		Jobs:          specs,
		PoolCores:     *pool,
		Policy:        pol,
		Strategy:      strat,
		SLOFactor:     *slo,
		Seed:          *seed,
		Admission:     adm,
		ScaleDownIdle: *scaledown,
		WarmPool:      *warmPool,
		TmpCache:      *tmpCache,
		ColdStarts:    *coldstart,
		Alloc:         allocLabel,
		Prof:          prof,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	rep, err := s.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := cliutil.WriteEventLog(*eventLog, s.Events().Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := cliutil.WriteTrace(*trace, s.Events().Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := cliutil.WriteAttrib(*attribF, s.Events().Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}

	switch *report {
	case "json":
		buf, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		os.Stdout.Write(buf)
	case "prom":
		if err := s.WriteProm(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
	default:
		fmt.Print(rep)
	}
	return writePerf()
}

// readTracefile reads a tracefile: arrival spec's file, of either shape —
// the only read of it a run makes — and prints each of its warnings to w
// once.
func readTracefile(path string, w io.Writer) (*tracereplay.Trace, error) {
	tr, err := tracereplay.Load(path)
	if err != nil {
		return nil, err
	}
	for _, warn := range tr.Warnings {
		fmt.Fprintln(w, "splitserve-cluster: warning:", warn)
	}
	return tr, nil
}

// pinCores applies a legacy tracefile's per-row core pins: a pinned job
// takes the row's demand, bypassing both the fixed default and the cost
// manager's pick.
func pinCores(cores []int, picks []*cluster.CostPick, rows []tracereplay.Row) {
	for i, row := range rows {
		if row.Cores > 0 {
			cores[i] = row.Cores
			picks[i] = nil
		}
	}
}

// labelTenants labels the job stream: a tracefile TENANT column wins per
// row; otherwise n > 0 synthetic tenants (t00, t01, ...) label it
// round-robin. It reports whether any job got a label.
func labelTenants(specs []cluster.JobSpec, rows []tracereplay.Row, n int) bool {
	tenanted := false
	for i := range specs {
		if i < len(rows) && rows[i].Tenant != "" {
			specs[i].Tenant = rows[i].Tenant
		} else if n > 0 {
			specs[i].Tenant = fmt.Sprintf("t%02d", i%n)
		}
		if specs[i].Tenant != "" {
			tenanted = true
		}
	}
	return tenanted
}

// shardedArgs carries the resolved flag set into the sharded
// control-plane path.
type shardedArgs struct {
	shards     int
	pool       int
	policy     cluster.Policy
	strategy   cluster.Strategy
	slo        float64
	seed       uint64
	admission  cluster.Admission
	scaledown  time.Duration
	warmPool   int
	tmpCache   bool
	coldStarts bool
	alloc      string
	prof       *perfstat.Collector
	specs      []cluster.JobSpec
	report     string
	eventLog   string
	trace      string
	attribF    string
	prodTrace  *tracereplay.Trace
	validate   bool
	writePerf  func() int
}

// runSharded drives a tenant-labelled stream through the sharded
// control plane and emits the merged report, event log and attribution.
func runSharded(a shardedArgs) int {
	if a.report == "prom" {
		fmt.Fprintln(os.Stderr, "splitserve-cluster: -report prom is not supported on the sharded control-plane path (use json or the default table)")
		return 2
	}
	m, err := shard.New(shard.Config{
		Shards: a.shards,
		Cluster: cluster.Config{
			Jobs:          a.specs,
			PoolCores:     a.pool,
			Policy:        a.policy,
			Strategy:      a.strategy,
			SLOFactor:     a.slo,
			Seed:          a.seed,
			Admission:     a.admission,
			ScaleDownIdle: a.scaledown,
			WarmPool:      a.warmPool,
			TmpCache:      a.tmpCache,
			ColdStarts:    a.coldStarts,
			Alloc:         a.alloc,
			Prof:          a.prof,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	rep, err := m.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	events := m.Events()
	if err := cliutil.WriteEventLog(a.eventLog, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := cliutil.WriteTrace(a.trace, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := cliutil.WriteAttrib(a.attribF, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}

	switch a.report {
	case "json":
		buf, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		os.Stdout.Write(buf)
	default:
		fmt.Print(rep)
	}
	// The validation table goes to stderr so -report json output stays
	// parseable; the exit code is the machine-readable verdict.
	if a.prodTrace != nil && a.validate {
		v := tracereplay.Validate(a.prodTrace, rep)
		fmt.Fprint(os.Stderr, v)
		if !v.OK {
			return 1
		}
	}
	return a.writePerf()
}
