// Package tracereplay ingests production-shaped arrival traces — the
// Azure-Functions / Google-cluster row shape of (tenant, arrival,
// runtime, demand) — and replays them through the sharded control plane.
// It owns three things: the CSV parser (header rows, CRLF, out-of-order
// arrivals tolerated, like the legacy tracefile parser), a deterministic
// synthetic multi-tenant trace generator (the committed test fixture
// comes from it), and replay validation that compares the merged report's
// per-tenant tables against the trace's empirical distributions.
package tracereplay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"splitserve/internal/cluster"
	"splitserve/internal/simrand"
	"splitserve/internal/workloads/sparkpi"
)

// Row is one traced job submission.
type Row struct {
	// Tenant is the submitting tenant's id.
	Tenant string
	// Arrival is the submission offset from the start of the trace.
	Arrival time.Duration
	// Runtime is the job's traced execution time at full provisioning.
	Runtime time.Duration
	// Cores is the job's core demand.
	Cores int
}

// Trace is a parsed production trace: rows sorted by arrival (stably, so
// equal arrivals keep file order).
type Trace struct {
	Rows []Row
	// Warnings records non-fatal input oddities (skipped header,
	// out-of-order rows — warned once).
	Warnings []string
}

// maxTraceFileBytes caps how much of a trace file is read, matching the
// legacy tracefile cap.
const maxTraceFileBytes = 1 << 20

// Header is the canonical column header the generator writes and the
// parser skips.
const Header = "tenant,arrival,runtime,cores"

// Parse reads CSV rows of the form "TENANT,ARRIVAL,RUNTIME,CORES"
// (e.g. "t03,90s,45s,4"). ARRIVAL and RUNTIME accept Go durations
// ("1m30s") or plain numbers meaning seconds ("90.5" — the unit most
// published traces use). Blank lines, '#' comments, a leading header row
// and CRLF endings are tolerated; out-of-order arrivals are sorted with a
// single warning.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	sorted := true
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text()) // also strips a trailing \r
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Split(s, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("line %d: %d fields (want TENANT,ARRIVAL,RUNTIME,CORES)", line, len(fields))
		}
		tenant := strings.TrimSpace(fields[0])
		arrival, aerr := parseDur(fields[1])
		runtime, rerr := parseDur(fields[2])
		if len(tr.Rows) == 0 && (aerr != nil || rerr != nil) && looksLikeHeader(fields) {
			tr.Warnings = append(tr.Warnings, fmt.Sprintf("line %d: skipped header row %q", line, s))
			continue
		}
		if tenant == "" {
			return nil, fmt.Errorf("line %d: empty tenant", line)
		}
		if aerr != nil {
			return nil, fmt.Errorf("line %d: bad arrival %q: %w", line, strings.TrimSpace(fields[1]), aerr)
		}
		if arrival < 0 {
			return nil, fmt.Errorf("line %d: bad arrival %q", line, strings.TrimSpace(fields[1]))
		}
		if rerr != nil {
			return nil, fmt.Errorf("line %d: bad runtime %q: %w", line, strings.TrimSpace(fields[2]), rerr)
		}
		if runtime <= 0 {
			return nil, fmt.Errorf("line %d: bad runtime %q", line, strings.TrimSpace(fields[2]))
		}
		cores, err := strconv.Atoi(strings.TrimSpace(fields[3]))
		if err != nil || cores < 1 {
			return nil, fmt.Errorf("line %d: bad cores %q", line, strings.TrimSpace(fields[3]))
		}
		if len(tr.Rows) > 0 && arrival < tr.Rows[len(tr.Rows)-1].Arrival {
			sorted = false
		}
		tr.Rows = append(tr.Rows, Row{Tenant: tenant, Arrival: arrival, Runtime: runtime, Cores: cores})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Rows) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if !sorted {
		tr.Warnings = append(tr.Warnings, "arrivals out of order: sorted rows by arrival")
		sort.SliceStable(tr.Rows, func(i, j int) bool { return tr.Rows[i].Arrival < tr.Rows[j].Arrival })
	}
	return tr, nil
}

// parseDur accepts a Go duration ("1m30s") or a bare number of seconds
// ("90.5"). A number of seconds must be finite and fit a time.Duration:
// converting an out-of-range float to an integer is left to the
// implementation by the Go spec, so it is rejected before converting.
func parseDur(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return time.ParseDuration(s)
	}
	ns := secs * float64(time.Second)
	switch {
	case math.IsNaN(ns):
		return 0, fmt.Errorf("%s is not a number of seconds", s)
	case ns >= float64(math.MaxInt64) || ns < float64(math.MinInt64):
		return 0, fmt.Errorf("%s seconds is out of range for a duration", s)
	}
	return time.Duration(ns), nil
}

func looksLikeHeader(fields []string) bool {
	for _, f := range fields {
		if strings.IndexFunc(strings.TrimSpace(f), unicode.IsLetter) < 0 {
			return false
		}
	}
	return true
}

// Load reads a production trace from path. Only regular files up to
// 1 MiB are accepted, like the legacy tracefile loader.
func Load(path string) (*Trace, error) {
	if path == "" {
		return nil, fmt.Errorf("tracereplay: empty path")
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("tracereplay: %s: not a regular file", path)
	}
	if fi.Size() > maxTraceFileBytes {
		return nil, fmt.Errorf("tracereplay: %s: %d bytes exceeds the %d-byte cap", path, fi.Size(), maxTraceFileBytes)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %w", err)
	}
	defer f.Close()
	tr, err := Parse(io.LimitReader(f, maxTraceFileBytes))
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %s: %w", path, err)
	}
	return tr, nil
}

// Detect reports whether path looks like a production trace (first data
// row has the 4-column TENANT,ARRIVAL,RUNTIME,CORES shape) rather than a
// legacy OFFSET[,CORES[,TENANT]] tracefile. It reads only the first
// non-comment line.
func Detect(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(io.LimitReader(f, 64<<10))
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		return len(strings.Split(s, ",")) == 4
	}
	return false
}

// runtimeGrid quantizes traced runtimes so Specs reuses baselines (and
// workload shapes) across jobs with near-identical runtimes: 250 ms
// buckets with a 250 ms floor.
const runtimeGrid = 250 * time.Millisecond

// Specs converts the trace into cluster job specs: every row becomes a
// sparkpi job sized so its full-provisioning execution time tracks the
// traced runtime (quantized to the 250 ms grid), labelled with the row's
// tenant. Baselines are measured once per distinct (runtime bucket,
// cores) shape and cached, so 10k-row traces need only a handful of
// baseline runs.
func Specs(tr *Trace, seed uint64) ([]cluster.JobSpec, error) {
	type shape struct {
		bucket time.Duration
		cores  int
	}
	baselines := map[shape]time.Duration{}
	specs := make([]cluster.JobSpec, 0, len(tr.Rows))
	for _, row := range tr.Rows {
		bucket := row.Runtime.Round(runtimeGrid)
		if bucket < runtimeGrid {
			bucket = runtimeGrid
		}
		sh := shape{bucket, row.Cores}
		base, ok := baselines[sh]
		if !ok {
			var err error
			base, err = cluster.Baseline(replayJob(bucket, row.Cores), row.Cores, seed)
			if err != nil {
				return nil, fmt.Errorf("tracereplay: baseline for %s/%d cores: %w", bucket, row.Cores, err)
			}
			baselines[sh] = base
		}
		specs = append(specs, cluster.JobSpec{
			Workload: replayJob(bucket, row.Cores),
			Tenant:   row.Tenant,
			Arrival:  row.Arrival,
			Cores:    row.Cores,
			Baseline: base,
		})
	}
	return specs, nil
}

// replayJob builds a sparkpi workload approximating the traced runtime at
// the traced demand: one wave of `cores` tasks, each costing the bucketed
// runtime at the calibrated 0.4 µs/dart rate (the cluster tests' sizing
// rule).
func replayJob(runtime time.Duration, cores int) *sparkpi.Workload {
	partitions := cores
	taskSecs := runtime.Seconds()
	return sparkpi.New(sparkpi.Config{
		Darts:               int64(float64(partitions) * taskSecs * 5e7 / 0.4),
		SampledDartsPerTask: 400_000 / partitions,
		Partitions:          partitions,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

// GenConfig parameterizes the synthetic multi-tenant generator.
type GenConfig struct {
	// Tenants is how many tenants submit (labelled t00, t01, ...).
	Tenants int
	// Jobs is the total row count.
	Jobs int
	// MeanGap is the mean inter-arrival time (exponential draws).
	MeanGap time.Duration
	// MeanRuntime is the mean traced runtime (exponential draws with a
	// 500 ms floor, mimicking the short-job-heavy FaaS runtime shape).
	MeanRuntime time.Duration
	// Seed drives every draw; same config and seed → same trace.
	Seed uint64
}

// Generate draws a deterministic synthetic production trace. Tenant
// popularity is Zipf-distributed (s=1.1), so a few tenants dominate —
// the skew published FaaS traces show, and what makes shard imbalance
// (and thus work-stealing) observable in replay.
func Generate(cfg GenConfig) (*Trace, error) {
	if cfg.Tenants < 1 || cfg.Jobs < 1 {
		return nil, fmt.Errorf("tracereplay: Tenants and Jobs must be >= 1")
	}
	if cfg.MeanGap <= 0 || cfg.MeanRuntime <= 0 {
		return nil, fmt.Errorf("tracereplay: MeanGap and MeanRuntime must be > 0")
	}
	rng := simrand.New(cfg.Seed ^ 0x7ace)
	tr := &Trace{Rows: make([]Row, 0, cfg.Jobs)}
	names := map[int]string{} // tenant names, formatted once per call
	at := time.Duration(0)
	for i := 0; i < cfg.Jobs; i++ {
		at += time.Duration(rng.Exp(1/cfg.MeanGap.Seconds()) * float64(time.Second))
		runtime := time.Duration(rng.Exp(1/cfg.MeanRuntime.Seconds()) * float64(time.Second))
		if runtime < 500*time.Millisecond {
			runtime = 500 * time.Millisecond
		}
		cores := 2
		if rng.Float64() < 0.3 {
			cores = 4
		}
		tenant := rng.Zipf(1.1, cfg.Tenants) - 1
		name, ok := names[tenant]
		if !ok {
			name = fmt.Sprintf("t%02d", tenant)
			names[tenant] = name
		}
		tr.Rows = append(tr.Rows, Row{
			Tenant:  name,
			Arrival: at.Round(time.Millisecond),
			Runtime: runtime.Round(10 * time.Millisecond),
			Cores:   cores,
		})
	}
	return tr, nil
}

// WriteCSV renders the trace in the canonical 4-column shape with a
// header row, durations in seconds (the published-trace convention).
func WriteCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(Header + "\n")
	var line []byte
	for _, row := range tr.Rows {
		line = append(line[:0], row.Tenant...)
		line = append(line, ',')
		line = appendSeconds(line, row.Arrival)
		line = append(line, ',')
		line = appendSeconds(line, row.Runtime)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(row.Cores), 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// appendSeconds appends d in seconds with three decimals, the bytes fmt's
// %.3f gives d.Seconds(). A whole number of milliseconds is written from
// integers; anything finer goes through strconv.
func appendSeconds(dst []byte, d time.Duration) []byte {
	if d%time.Millisecond != 0 {
		return strconv.AppendFloat(dst, d.Seconds(), 'f', 3, 64)
	}
	ms := int64(d / time.Millisecond)
	if ms < 0 {
		dst = append(dst, '-')
		ms = -ms
	}
	dst = strconv.AppendInt(dst, ms/1000, 10)
	frac := ms % 1000
	return append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
