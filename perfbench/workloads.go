package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"splitserve/internal/attrib"
	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/perfstat"
	"splitserve/internal/shard"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/tracereplay"
	"splitserve/internal/workloads"
)

// maxSimTime bounds every drive in simulated time, as cluster.Config's
// default does.
const maxSimTime = 48 * time.Hour

// jobDesc is one generated job submission: everything the benchmark turns
// into a cluster.JobSpec.
type jobDesc struct {
	Tenant   string
	Arrival  time.Duration
	Cores    int
	Parts    int
	Rows     int // rows per partition
	RowBytes int
	Actions  int     // actions, or shuffle reads when Shuffle
	Cost     float64 // work units per row
	Shuffle  bool
}

// genInputs is what a workload's generator draws from the seed: the job
// list, or (tenant-replay) the trace CSV the job list is parsed from.
type genInputs struct {
	jobs    []jobDesc
	csv     []byte
	simSeed uint64
}

// specList renders the job list one line per job, the form the seed
// tests compare byte for byte.
func (g *genInputs) specList() []byte {
	var b bytes.Buffer
	for _, j := range g.jobs {
		fmt.Fprintf(&b, "%q,%d,%d,%d,%d,%d,%d,%g,%t\n", j.Tenant, j.Arrival, j.Cores, j.Parts,
			j.Rows, j.RowBytes, j.Actions, j.Cost, j.Shuffle)
	}
	fmt.Fprintf(&b, "sim_seed=%d\n", g.simSeed)
	return b.Bytes()
}

// workload is one benchmark workload: its generator and the cluster shape
// it drives.
type workload struct {
	name      string
	generate  func(seed uint64) (*genInputs, error)
	poolCores int
	strategy  cluster.Strategy
	// shards > 0 drives the job stream through shard.Manager with every
	// output on; 0 drives one cluster.Scheduler with outputs off.
	shards int
}

var allWorkloads = []*workload{
	{
		// Every parked job is swept by Scheduler.Pump on every clock
		// step: loads cluster and simclock.
		name:      "burst-concurrent",
		generate:  genBurst,
		poolCores: 16,
		strategy:  cluster.StrategyBridge,
	},
	{
		// Hundreds of shuffle flows share pools while the control plane
		// idles: loads netsim's fair-share recompute.
		name:      "shuffle-contended",
		generate:  genShuffle,
		poolCores: 64,
		strategy:  cluster.StrategyBridge,
	},
	{
		// Sharded lockstep with queued, stolen jobs and every output on:
		// loads shard, tracereplay and observability, and uses cluster
		// differently from burst-concurrent.
		name:      "tenant-replay",
		generate:  genTenant,
		poolCores: 64,
		strategy:  cluster.StrategyQueue,
		shards:    4,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Generator sizes. Arrivals are fixed simulated offsets (open loop), so
// the offered load does not depend on host speed.
const (
	burstJobs    = 1200
	burstGap     = 2 * time.Millisecond
	shuffleJobs  = 20
	shuffleGap   = 2 * time.Second
	tenantRows   = 3000
	tenantGap    = 120 * time.Millisecond
	tenantRunAvg = 2 * time.Second
)

// jitterGap draws an inter-arrival time uniformly within ±10% of mean,
// rounded to the microsecond. Arrivals stay seeded but the offered load
// barely moves with the seed, so seeds compare on one load.
func jitterGap(rng *simrand.RNG, mean time.Duration) time.Duration {
	return time.Duration(float64(mean) * (0.9 + 0.2*rng.Float64())).Round(time.Microsecond)
}

// genBurst: 2-core jobs of 4 one-row partitions, each an application of
// 2-4 actions whose tasks take 2 s of work, arriving every ~2 ms. Jobs
// outlast the 2.4 s arrival window, so all of them are parked at once.
func genBurst(seed uint64) (*genInputs, error) {
	rng := simrand.New(seed ^ 0xb0b5)
	g := &genInputs{simSeed: seed}
	at := time.Duration(0)
	for i := 0; i < burstJobs; i++ {
		at += jitterGap(rng, burstGap)
		g.jobs = append(g.jobs, jobDesc{
			Arrival: at, Cores: 2, Parts: 4, Rows: 1, RowBytes: 64,
			Actions: 2 + rng.Intn(3), Cost: 2 * taskRate,
		})
	}
	return g, nil
}

// genShuffle: the shufflereuse shape — 16 partitions × 64 rows × 256 KiB
// modelled row bytes, the shuffle read 3 times — arriving every ~2 s.
func genShuffle(seed uint64) (*genInputs, error) {
	rng := simrand.New(seed ^ 0x5ff1e)
	g := &genInputs{simSeed: seed}
	at := time.Duration(0)
	for i := 0; i < shuffleJobs; i++ {
		at += jitterGap(rng, shuffleGap)
		g.jobs = append(g.jobs, jobDesc{
			Arrival: at, Cores: 16, Parts: 16, Rows: 64, RowBytes: 256 << 10,
			Actions: 3, Cost: 2000, Shuffle: true,
		})
	}
	return g, nil
}

// genTenant draws a 16-tenant Zipf trace with tracereplay.Generate and
// writes it as CSV; setup parses it back.
func genTenant(seed uint64) (*genInputs, error) {
	trace, err := tracereplay.Generate(tracereplay.GenConfig{
		Tenants: 16, Jobs: tenantRows, MeanGap: tenantGap, MeanRuntime: tenantRunAvg, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := tracereplay.WriteCSV(&b, trace); err != nil {
		return nil, err
	}
	return &genInputs{csv: b.Bytes(), simSeed: seed}, nil
}

// runtimeGrid quantizes traced runtimes into the calibration buckets
// tracereplay.Specs uses, so one Baseline serves each bucket × cores.
const runtimeGrid = 250 * time.Millisecond

// inputs is everything a drive receives.
type inputs struct {
	trace     *tracereplay.Trace
	specs     []cluster.JobSpec
	baselines int
	simSeed   uint64
}

// setup turns generated inputs into job specs: it parses the trace CSV
// (tenant-replay), builds a fresh workload per job, and calibrates one
// cluster.Baseline per distinct job shape.
func setup(g *genInputs, t *tracer) (*inputs, error) {
	in := &inputs{simSeed: g.simSeed}
	jobs := g.jobs
	if g.csv != nil {
		sp := t.begin(spanParse, -1)
		trace, err := tracereplay.Parse(bytes.NewReader(g.csv))
		t.end(sp)
		if err != nil {
			return nil, err
		}
		in.trace = trace
		jobs = make([]jobDesc, 0, len(trace.Rows))
		for _, row := range trace.Rows {
			bucket := row.Runtime.Round(runtimeGrid)
			if bucket < runtimeGrid {
				bucket = runtimeGrid
			}
			jobs = append(jobs, jobDesc{
				Tenant: row.Tenant, Arrival: row.Arrival, Cores: row.Cores,
				Parts: row.Cores, Rows: 1, RowBytes: 16, Actions: 1,
				Cost: bucket.Seconds() * taskRate,
			})
		}
	}
	baselines := map[jobDesc]time.Duration{} // keyed by shape: no tenant, no arrival
	in.specs = make([]cluster.JobSpec, 0, len(jobs))
	for i, j := range jobs {
		sh := j
		sh.Tenant, sh.Arrival = "", 0
		base, ok := baselines[sh]
		if !ok {
			sp := t.begin(spanBaseline, i)
			var err error
			base, err = cluster.Baseline(newJob(j, -1, t), j.Cores, g.simSeed)
			t.end(sp)
			if err != nil {
				return nil, fmt.Errorf("baseline of job %d: %w", i, err)
			}
			baselines[sh] = base
		}
		in.specs = append(in.specs, cluster.JobSpec{
			Name:     jobName(j),
			Workload: newJob(j, i, t),
			Tenant:   j.Tenant,
			Arrival:  j.Arrival,
			Cores:    j.Cores,
			Baseline: base,
		})
	}
	in.baselines = len(baselines)
	return in, nil
}

func jobName(j jobDesc) string {
	if j.Shuffle {
		return fmt.Sprintf("shuffle-%dx%d-r%d", j.Parts, j.Rows, j.Actions)
	}
	return fmt.Sprintf("actions-%dx%d-a%d", j.Parts, j.Rows, j.Actions)
}

// newJob builds a fresh no-payload workload for d; id is the job's index
// in the stream (-1 for a calibration run).
func newJob(d jobDesc, id int, t *tracer) workloads.Workload {
	return &job{name: jobName(d), desc: d, src: newRowSource(id, d.Parts, d.Rows, t)}
}

// driveOutcome is one drive's outcome.
type driveOutcome struct {
	jobs     int // simulated jobs settled
	digest   string
	problems []string
	steals   int
	rows     int // trace rows replayed (tenant-replay)
}

func (r *driveOutcome) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkSettled fails a drive in which a submitted job is missing from the
// report, failed or was shed.
func (r *driveOutcome) checkSettled(submitted, jobs, completed, failed, shed int) {
	if jobs != submitted || completed != jobs || failed != 0 || shed != 0 {
		r.failf("%d jobs submitted, %d reported: %d completed, %d failed, %d shed",
			submitted, jobs, completed, failed, shed)
	}
}

// drive runs the job stream to completion, then (tenant-replay) writes
// every output. mark("outputs") is called as the outputs begin and
// mark("done") the moment the last is written, which ends the timed
// window; the digest and checks come after it.
func (w *workload) drive(in *inputs, t *tracer, prof *perfstat.Collector, mark func(phase string)) (*driveOutcome, error) {
	cfg := cluster.Config{
		Jobs:       in.specs,
		PoolCores:  w.poolCores,
		Strategy:   w.strategy,
		Seed:       in.simSeed,
		MaxSimTime: maxSimTime,
		Prof:       prof,
	}
	if w.shards > 0 {
		return w.driveShards(cfg, in, t, prof, mark)
	}
	sp := t.begin(spanNew, -1)
	s, err := cluster.New(cfg)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	var rep *cluster.Report
	if t == nil {
		if rep, err = s.Run(); err != nil {
			return nil, err
		}
	} else {
		// The same loop as Scheduler.Run, split so each call is a span.
		observeSteps(s.Clock(), t, prof)
		sp = t.begin(spanStart, -1)
		err = s.Start()
		t.end(sp)
		if err != nil {
			return nil, err
		}
		deadline := simclock.Epoch.Add(maxSimTime)
		for !s.Done() && s.Clock().Now().Before(deadline) {
			if !s.Clock().Step() {
				break
			}
			sp = t.begin(spanPump, -1)
			s.Pump()
			t.end(sp)
		}
		sp = t.begin(spanFinalize, -1)
		rep = s.Finalize()
		t.end(sp)
	}
	mark("done")

	res := &driveOutcome{jobs: rep.Completed}
	res.checkSettled(len(in.specs), rep.Jobs, rep.Completed, rep.Failed, rep.Shed)
	reportJSON, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(reportJSON)
	if err := s.Events().WriteJSONL(h); err != nil {
		return nil, err
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// driveShards replays the stream through the sharded control plane and
// writes every output the CLI's -eventlog/-trace/-attrib/-report/-validate
// flags write, into memory.
func (w *workload) driveShards(cfg cluster.Config, in *inputs, t *tracer, prof *perfstat.Collector, mark func(phase string)) (*driveOutcome, error) {
	sp := t.begin(spanNew, -1)
	m, err := shard.New(shard.Config{Shards: w.shards, Cluster: cfg})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if t != nil {
		observeSteps(m.Clock(), t, prof)
	}
	sp = t.begin(spanShardRun, -1)
	rep, err := m.Run()
	t.end(sp)
	if err != nil {
		return nil, err
	}

	mark("outputs")
	sp = t.begin(spanMerge, -1)
	events := m.Events()
	t.end(sp)
	var jsonl bytes.Buffer
	sp = t.begin(spanEventlog, -1)
	err = eventlog.WriteJSONL(&jsonl, events)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanTrace, -1)
	chrome, err := eventlog.ChromeTrace(events)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanAttrib, -1)
	att := attrib.Analyze(events)
	attJSON, err := att.JSON()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanReport, -1)
	reportJSON, err := rep.JSON()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spanValidate, -1)
	val := tracereplay.Validate(in.trace, rep)
	t.end(sp)
	mark("done")

	res := &driveOutcome{jobs: rep.Completed, steals: rep.Steals, rows: len(in.trace.Rows)}
	res.checkSettled(len(in.specs), rep.Jobs, rep.Completed, rep.Failed, rep.Shed)
	if !val.OK {
		res.failf("tracereplay.Validate: %v", val.Problems)
	}
	if len(att.Jobs) != rep.Jobs {
		res.failf("attribution covers %d jobs, report has %d", len(att.Jobs), rep.Jobs)
	}
	for i := range att.Jobs {
		j := &att.Jobs[i]
		if got := j.BlameSumUS(); got != j.MakespanUS {
			res.failf("attribution of %s: blame sums to %dus, makespan %dus", j.App, got, j.MakespanUS)
			break
		}
	}
	if len(chrome) == 0 || len(attJSON) == 0 {
		res.failf("empty Chrome trace or attribution output")
	}
	h := sha256.New()
	h.Write(reportJSON)
	h.Write(jsonl.Bytes())
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// observeSteps records a span per clock step, forwarding each step to
// the perfstat collector the layers attached to the clock.
func observeSteps(c *simclock.Clock, t *tracer, prof *perfstat.Collector) {
	obs := stepSpans{t: t}
	if prof != nil {
		obs.next = prof
	}
	c.SetStepObserver(obs)
}
