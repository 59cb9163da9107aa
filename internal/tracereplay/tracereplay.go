// Package tracereplay owns the trace CSV: it reads both tracefile
// shapes — production-shaped arrival traces, the Azure-Functions /
// Google-cluster row shape of (tenant, arrival, runtime, demand), and the
// legacy OFFSET[,CORES[,TENANT]] arrival list — through one parser, and
// replays production traces through the sharded control plane. Besides
// the parser it holds a deterministic synthetic multi-tenant trace
// generator (the committed test fixture comes from it) and replay
// validation that compares the merged report's per-tenant tables against
// the trace's empirical distributions.
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
	// Tenant is the submitting tenant's id ("" for a legacy row without
	// one).
	Tenant string
	// Arrival is the submission offset from the start of the trace.
	Arrival time.Duration
	// Runtime is the job's traced execution time at full provisioning (0
	// in a legacy trace, which carries none).
	Runtime time.Duration
	// Cores is the job's core demand (0 in a legacy row that pins none).
	Cores int
}

// Trace is a parsed trace: rows sorted by arrival (stably, so equal
// arrivals keep file order).
type Trace struct {
	Rows []Row
	// Legacy records that the file had the OFFSET[,CORES[,TENANT]] shape
	// rather than TENANT,ARRIVAL,RUNTIME,CORES: its rows carry no runtime,
	// so they are arrivals with optional core pins and tenants, not jobs to
	// replay.
	Legacy bool
	// Warnings records non-fatal input oddities (skipped header,
	// out-of-order rows — warned once).
	Warnings []string
}

// maxTraceFileBytes caps how much of a trace file is read — a malformed
// path (FIFO, device, huge file) fails fast instead of wedging the CLI.
const maxTraceFileBytes = 1 << 20

// Header is the canonical column header the generator writes and the
// parser skips.
const Header = "tenant,arrival,runtime,cores"

// Parse reads trace CSV in either of two shapes. The first data row's
// column count fixes the shape for the whole file:
//
//   - 4 columns, "TENANT,ARRIVAL,RUNTIME,CORES" (e.g. "t03,90s,45s,4"): a
//     production trace. ARRIVAL and RUNTIME accept Go durations ("1m30s")
//     or plain numbers meaning seconds ("90.5" — the unit most published
//     traces use). A leading row whose fields all contain letters is a
//     header.
//   - any other count, "OFFSET[,CORES[,TENANT]]" (e.g. "30s,4,t02"): a
//     legacy tracefile, with Legacy set. OFFSET is a Go duration; an
//     empty or missing CORES ("30s,,t02") leaves Cores 0, meaning no pin.
//     A leading row whose OFFSET contains letters is a header.
//
// Blank lines, '#' comments and CRLF endings are tolerated; a skipped
// header is warned. Malformed rows are rejected with their line number.
// Out-of-order arrivals are sorted with a single warning — published
// traces are frequently sorted by tenant, not time.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	var fields []string
	line := 0
	shaped, sorted := false, true
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text()) // also strips a trailing \r
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields = splitComma(fields[:0], s)
		if !shaped {
			tr.Legacy, shaped = len(fields) != 4, true
		}
		var row Row
		var header bool
		var err error
		if tr.Legacy {
			row, header, err = legacyRow(fields, len(tr.Rows) == 0)
		} else {
			row, header, err = productionRow(fields, len(tr.Rows) == 0)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if header {
			tr.Warnings = append(tr.Warnings, fmt.Sprintf("line %d: skipped header row %q", line, s))
			continue
		}
		if n := len(tr.Rows); n > 0 && row.Arrival < tr.Rows[n-1].Arrival {
			sorted = false
		}
		tr.Rows = append(tr.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", line+1, err)
	}
	if len(tr.Rows) == 0 {
		return nil, errors.New("empty trace")
	}
	if !sorted {
		by := "arrival"
		if tr.Legacy {
			by = "offset"
		}
		tr.Warnings = append(tr.Warnings, "arrivals out of order: sorted rows by "+by)
		sort.SliceStable(tr.Rows, func(i, j int) bool { return tr.Rows[i].Arrival < tr.Rows[j].Arrival })
	}
	return tr, nil
}

// splitComma appends s's comma-separated fields to dst, as strings.Split
// would return them, so the parser reuses one slice across rows.
func splitComma(dst []string, s string) []string {
	for {
		i := strings.IndexByte(s, ',')
		if i < 0 {
			return append(dst, s)
		}
		dst = append(dst, s[:i])
		s = s[i+1:]
	}
}

// productionRow parses one TENANT,ARRIVAL,RUNTIME,CORES row; header
// reports a skipped header (only the first data row may be one).
func productionRow(fields []string, first bool) (row Row, header bool, err error) {
	if len(fields) != 4 {
		return row, false, fmt.Errorf("%d fields (want TENANT,ARRIVAL,RUNTIME,CORES)", len(fields))
	}
	tenant := strings.TrimSpace(fields[0])
	arrival, aerr := parseDur(fields[1])
	runtime, rerr := parseDur(fields[2])
	if first && (aerr != nil || rerr != nil) && looksLikeHeader(fields) {
		return row, true, nil
	}
	if tenant == "" {
		return row, false, errors.New("empty tenant")
	}
	if aerr != nil {
		return row, false, fmt.Errorf("bad arrival %q: %w", strings.TrimSpace(fields[1]), aerr)
	}
	if arrival < 0 {
		return row, false, fmt.Errorf("bad arrival %q", strings.TrimSpace(fields[1]))
	}
	if rerr != nil {
		return row, false, fmt.Errorf("bad runtime %q: %w", strings.TrimSpace(fields[2]), rerr)
	}
	if runtime <= 0 {
		return row, false, fmt.Errorf("bad runtime %q", strings.TrimSpace(fields[2]))
	}
	cores, err := strconv.Atoi(strings.TrimSpace(fields[3]))
	if err != nil || cores < 1 {
		return row, false, fmt.Errorf("bad cores %q", strings.TrimSpace(fields[3]))
	}
	return Row{Tenant: tenant, Arrival: arrival, Runtime: runtime, Cores: cores}, false, nil
}

// legacyRow parses one OFFSET[,CORES[,TENANT]] row; header reports a
// skipped header (only rows before the first data row may be one).
func legacyRow(fields []string, first bool) (row Row, header bool, err error) {
	if len(fields) > 3 {
		return row, false, fmt.Errorf("%d fields (want OFFSET[,CORES[,TENANT]])", len(fields))
	}
	off := strings.TrimSpace(fields[0])
	row.Arrival, err = time.ParseDuration(off)
	if err != nil {
		if first && strings.IndexFunc(off, unicode.IsLetter) >= 0 {
			return row, true, nil
		}
		return row, false, fmt.Errorf("bad offset %q", off)
	}
	if row.Arrival < 0 {
		return row, false, fmt.Errorf("bad offset %q", off)
	}
	if len(fields) >= 2 {
		if cs := strings.TrimSpace(fields[1]); cs != "" {
			c, err := strconv.Atoi(cs)
			if err != nil || c < 1 {
				return row, false, fmt.Errorf("bad cores %q", cs)
			}
			row.Cores = c
		}
	}
	if len(fields) == 3 {
		row.Tenant = strings.TrimSpace(fields[2])
	}
	return row, false, nil
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

// Load reads a trace of either shape from path. Only regular files up to
// 1 MiB are accepted.
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
	if tr.Legacy {
		return nil, fmt.Errorf("tracereplay: a legacy OFFSET[,CORES[,TENANT]] trace has no runtimes to replay")
	}
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
