// Command perfbench measures the host cost of simulating a SplitServe
// cluster: how many simulated jobs the simulator settles per second of
// host time on three no-payload workloads, with a per-layer breakdown
// from a separate traced run. See README.md for the metrics, the
// workloads and what each layer metric is expected to move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload burst-concurrent --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"splitserve/internal/perfstat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: burst-concurrent, shuffle-contended or tenant-replay")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "measure for this many seconds of host time")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 adds a traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	// The simulator is single-threaded by design. One P charges the
	// collector's work to the same wall clock on every host, and keeps
	// goroutine handoffs and GC stop-the-world phases from waiting on a
	// second CPU that a shared host may have descheduled; with two Ps,
	// run-to-run spread on a shared 2-vCPU host was nearly twice as wide.
	runtime.GOMAXPROCS(1)

	b := &bench{w: w, seed: *seed, heap: startHeapSampler(), log: stderr}
	defer b.heap.close()
	res := b.measure(time.Duration(*seconds)*time.Second, *trace == 1)
	fmt.Fprintf(stdout, "sim_digest %s\n", b.digest)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

// bench runs one workload at one seed repeatedly.
type bench struct {
	w      *workload
	seed   uint64
	heap   *heapSampler
	log    io.Writer
	digest string // of the first successful iteration
}

// iteration is one set-up + drive + outputs of the workload.
type iteration struct {
	setup     time.Duration
	wall      time.Duration // drive start to last output written
	peakMB    float64
	rt        rtCounters // over the drive window
	res       *driveOutcome
	baselines int
	profile   []byte
}

// measure runs one warm-up iteration, untraced iterations for d, then
// (traced) one traced iteration, and reduces them to the result line.
func (b *bench) measure(d time.Duration, traced bool) result {
	res := result{Metrics: map[string]metric{}}
	try := func() *iteration {
		res.Attempted++
		it, err := b.iterate(nil, nil)
		if err == nil {
			err = b.check(it)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(b.log, "perfbench: %s iteration %d: %v\n", b.w.name, res.Attempted, err)
			return nil
		}
		return it
	}
	// The warm-up is checked like any iteration but not timed: it grows
	// the heap and fills the caches that every later iteration finds
	// ready, so the first timed iteration is not the odd one out.
	try()
	var its []*iteration
	start := time.Now()
	for len(its) == 0 || time.Since(start) < d {
		if it := try(); it != nil {
			its = append(its, it)
		} else if res.Failed >= 3 && len(its) == 0 {
			break
		}
	}
	if len(its) == 0 {
		res.Metrics = nil
		return res
	}
	walls := sorted(its, func(it *iteration) float64 { return it.wall.Seconds() })
	wall := medianOf(walls)
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %d iterations, drive %.3fs median (%.3f-%.3fs)\n",
		b.w.name, b.seed, len(its), wall, walls[0], walls[len(walls)-1])
	if !traced {
		// Work completed per second over the whole run, not a median of
		// per-iteration rates. The host's speed moves in phases of
		// seconds to a minute; a median flips between the fast and slow
		// phase as one or the other covers half the run, while the ratio
		// of totals moves only with the share of the run each covers.
		var jobs int
		var secs float64
		for _, it := range its {
			jobs += it.res.jobs
			secs += it.wall.Seconds()
		}
		res.Metrics["jobs_per_s"] = metric{float64(jobs) / secs, "1/s"}
		res.Metrics["setup_s"] = metric{median(its, func(it *iteration) float64 { return it.setup.Seconds() }), "s"}
		res.Metrics["peak_heap_mb"] = metric{median(its, func(it *iteration) float64 { return it.peakMB }), "MB"}
		res.Correct = res.Failed == 0
		return res
	}

	res.Attempted++
	t := newTracer()
	prof := perfstat.New()
	it, err := b.iterate(t, prof)
	if err == nil {
		err = b.check(it)
	}
	if err == nil {
		tot := t.totals()
		tot.write(b.log)
		err = layerMetrics(res.Metrics, its, it, t, &tot, prof.Snapshot(), wall)
	}
	if err != nil {
		res.Failed++
		fmt.Fprintf(b.log, "perfbench: %s traced iteration: %v\n", b.w.name, err)
	}
	res.Correct = res.Failed == 0
	return res
}

// profileHz is the traced run's CPU sampling rate.
const profileHz = 500

// iterate generates the inputs from the seed, sets up, drives and (where
// the workload asks) writes the outputs. A panic anywhere is an error.
// With a tracer (and collector) the iteration is the traced one: spans,
// perfstat counters and a CPU profile of the drive and outputs.
func (b *bench) iterate(t *tracer, prof *perfstat.Collector) (it *iteration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	traced := t != nil
	runtime.GC()
	b.heap.reset()
	it = &iteration{}

	t0 := time.Now()
	sp := t.begin(spanGenerate, -1)
	g, err := b.w.generate(b.seed)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in, err := setup(g, t)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	it.setup = time.Since(t0)
	it.baselines = in.baselines

	var profile bytes.Buffer
	ctx := context.Background()
	if traced {
		// One drive is a second or two: sample at profileHz, not
		// pprof's fixed 100 Hz, for enough samples per layer. The rate
		// set first sticks; StartCPUProfile then warns on stderr that it
		// cannot change it. Shares do not depend on the rate.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("phase", "drive")))
		defer pprof.SetGoroutineLabels(ctx)
	}
	rt0 := readRuntime()
	t1 := time.Now()
	mark := func(phase string) {
		switch phase {
		case "outputs":
			if traced {
				pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("phase", "outputs")))
			}
		case "done":
			it.wall = time.Since(t1)
			it.rt = readRuntime().sub(rt0)
			it.peakMB = b.heap.peakMB()
			if traced {
				pprof.StopCPUProfile()
				pprof.SetGoroutineLabels(ctx)
			}
		}
	}
	it.res, err = b.w.drive(in, t, prof, mark)
	if err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	it.profile = profile.Bytes()
	return it, nil
}

// check fails an iteration whose outputs are wrong or whose simulated
// output differs from the first iteration at this seed.
func (b *bench) check(it *iteration) error {
	if len(it.res.problems) > 0 {
		return errors.New(it.res.problems[0])
	}
	if b.digest == "" {
		b.digest = it.res.digest
	} else if it.res.digest != b.digest {
		return fmt.Errorf("sim_digest %s differs from %s at the same seed", it.res.digest, b.digest)
	}
	return nil
}

// sorted returns f over the iterations in ascending order.
func sorted(its []*iteration, f func(*iteration) float64) []float64 {
	v := make([]float64, len(its))
	for i, it := range its {
		v[i] = f(it)
	}
	sort.Float64s(v)
	return v
}

func medianOf(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// median returns the median of f over the iterations.
func median(its []*iteration, f func(*iteration) float64) float64 {
	return medianOf(sorted(its, f))
}
