package tracereplay

// The parsers trace CSV had before one Parse read both shapes, kept
// verbatim (renamed) as the reference the live parser must agree with:
// the production-shape tracereplay.Parse and the legacy-shape
// cluster.ParseArrivalTrace, chosen between by the old tracereplay.Detect
// as splitserve-cluster did. TestParseMatchesReference and FuzzParseTrace
// hold Parse to the same accept/reject outcome, rows, row order and
// warnings.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
)

// refArrivalTrace is cluster.ArrivalTrace, a parsed tracefile: arrival offsets sorted ascending,
// plus parallel Cores and Tenants slices (0 / "" where a row gave no
// core count or tenant). The slices are reordered together, so Cores[i]
// and Tenants[i] always belong to Offsets[i].
type refArrivalTrace struct {
	Offsets []time.Duration
	Cores   []int
	Tenants []string
	// Warnings collects non-fatal input oddities — a skipped header row,
	// rows that arrived out of order (sorted; warned once) — so the CLI
	// can surface them without failing the run.
	Warnings []string
}

// refParseArrivalTrace is the old cluster.ParseArrivalTrace. It parses CSV rows of the form "OFFSET", "OFFSET,CORES"
// or "OFFSET,CORES,TENANT" (e.g. "30s,4,t02"; an empty CORES field —
// "30s,,t02" — means "no pin"). Blank lines and lines starting with '#'
// are skipped, as is a leading header row ("offset,cores,tenant" style —
// production trace exports usually carry one); CRLF line endings are
// tolerated. Malformed rows are rejected with their line number. Rows are
// sorted by offset (stably, so equal offsets keep file order) before
// returning; when the input was out of order, a single warning is
// recorded rather than an error — published traces are frequently sorted
// by tenant, not time.
func refParseArrivalTrace(r io.Reader) (*refArrivalTrace, error) {
	type row struct {
		offset time.Duration
		cores  int
		tenant string
	}
	var rows []row
	var warnings []string
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
		if len(fields) > 3 {
			return nil, fmt.Errorf("line %d: %d fields (want OFFSET[,CORES[,TENANT]])", line, len(fields))
		}
		off := strings.TrimSpace(fields[0])
		d, err := time.ParseDuration(off)
		if err != nil {
			// Header tolerance: an unparsable first data row that contains
			// letters ("offset,cores,tenant") is skipped with a warning;
			// anything later is a data error.
			if len(rows) == 0 && strings.IndexFunc(off, unicode.IsLetter) >= 0 {
				warnings = append(warnings, fmt.Sprintf("line %d: skipped header row %q", line, s))
				continue
			}
			return nil, fmt.Errorf("line %d: bad offset %q", line, off)
		}
		if d < 0 {
			return nil, fmt.Errorf("line %d: bad offset %q", line, off)
		}
		cores := 0
		if len(fields) >= 2 {
			if cs := strings.TrimSpace(fields[1]); cs != "" {
				c, err := strconv.Atoi(cs)
				if err != nil || c < 1 {
					return nil, fmt.Errorf("line %d: bad cores %q", line, cs)
				}
				cores = c
			}
		}
		tenant := ""
		if len(fields) == 3 {
			tenant = strings.TrimSpace(fields[2])
		}
		if len(rows) > 0 && d < rows[len(rows)-1].offset {
			sorted = false
		}
		rows = append(rows, row{offset: d, cores: cores, tenant: tenant})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if !sorted {
		warnings = append(warnings, "arrivals out of order: sorted rows by offset")
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].offset < rows[j].offset })
	}
	tr := &refArrivalTrace{
		Offsets:  make([]time.Duration, len(rows)),
		Cores:    make([]int, len(rows)),
		Tenants:  make([]string, len(rows)),
		Warnings: warnings,
	}
	for i, rw := range rows {
		tr.Offsets[i] = rw.offset
		tr.Cores[i] = rw.cores
		tr.Tenants[i] = rw.tenant
	}
	return tr, nil
}

// refParse is the old tracereplay.Parse. It reads CSV rows of the form "TENANT,ARRIVAL,RUNTIME,CORES"
// (e.g. "t03,90s,45s,4"). ARRIVAL and RUNTIME accept Go durations
// ("1m30s") or plain numbers meaning seconds ("90.5" — the unit most
// published traces use). Blank lines, '#' comments, a leading header row
// and CRLF endings are tolerated; out-of-order arrivals are sorted with a
// single warning.
func refParse(r io.Reader) (*Trace, error) {
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
		arrival, aerr := refParseDur(fields[1])
		runtime, rerr := refParseDur(fields[2])
		if len(tr.Rows) == 0 && (aerr != nil || rerr != nil) && refLooksLikeHeader(fields) {
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

// refParseDur accepts a Go duration ("1m30s") or a bare number of seconds
// ("90.5"). A number of seconds must be finite and fit a time.Duration:
// converting an out-of-range float to an integer is left to the
// implementation by the Go spec, so it is rejected before converting.
func refParseDur(s string) (time.Duration, error) {
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

func refLooksLikeHeader(fields []string) bool {
	for _, f := range fields {
		if strings.IndexFunc(strings.TrimSpace(f), unicode.IsLetter) < 0 {
			return false
		}
	}
	return true
}

// refDetect is the old tracereplay.Detect, reading from f where Detect
// opened a path. It reports whether the input looks like a production
// trace (first data row has the 4-column TENANT,ARRIVAL,RUNTIME,CORES
// shape) rather than a legacy OFFSET[,CORES[,TENANT]] tracefile. It reads
// only the first non-comment line.
func refDetect(f io.Reader) bool {
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

// refParseTrace reads data the way splitserve-cluster did before Parse
// read both shapes: Detect picks the parser, and a legacy trace's
// parallel slices become rows with no runtime.
func refParseTrace(data []byte) (*Trace, error) {
	if refDetect(bytes.NewReader(data)) {
		return refParse(bytes.NewReader(data))
	}
	at, err := refParseArrivalTrace(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	tr := &Trace{Legacy: true, Warnings: at.Warnings}
	for i, off := range at.Offsets {
		tr.Rows = append(tr.Rows, Row{Tenant: at.Tenants[i], Arrival: off, Cores: at.Cores[i]})
	}
	return tr, nil
}

// parseCorpus is every input the retired parsers' tests fed them
// (TestParseArrivalTrace*, TestLoadArrivalTrace, TestParseShapes,
// TestDetect and the FuzzParseArrivalTrace seeds), plus both shapes'
// edge cases: mixed column counts, header-only files, a header that
// fixes the shape, and out-of-range numbers.
var parseCorpus = []string{
	// Legacy OFFSET[,CORES[,TENANT]].
	"0s\n5s\n", "30s,4\n0s\n10s,2\n", "# comment\n\n1m\n",
	"5s,0\n", "5s,-1\n", "5s,x\n", "bogus\n", "1s,2,3,4\n", "-1s\n", "",
	"0s,4,t00\n5s,2,t01\n", "30s,,t02\n", "offset,cores,tenant\n1s,2,t00\n",
	"0s,4,t00\r\n5s,2,t01\r\n", "10s,1,t01\n0s,1,t00\n",
	"offset,cores,tenant\n", "header\n-1s\n",
	"# arrival trace\n\n30s,4\n0s\n10s, 2 \n", "5s\nbogus\n", "5s,2,t0,extra\n",
	"# only comments\n\n",
	"offset,cores,tenant\r\n10s,2,t01\r\n0s,,t00\r\n30s,4,t01\r\n5s\r\n",
	"0s\n5s,4\n", "0s\nnope\n", "# trace\n30s,4,t00\n",
	"0s\n1,2,3,4\n", "offset\noffset\n1s\n", "1s\noffset\n", "1h,1\n0s,,\n",
	// Production TENANT,ARRIVAL,RUNTIME,CORES.
	"tenant,arrival,runtime,cores\r\nt01,10,5,2\r\nt00,1.5,2m,4\r\n# c\nt01,1m30s,0.5,2\r\n",
	"tenant,arrival,runtime,cores\nt00,1,2,2\n",
	"t00,1\n", "t00,1,2,3,4\n", ",1,2,2\n", "t00,-1,2,2\n", "t00,1,0,2\n", "t00,1,2,0\n",
	"t00,NaN,2,2\n", "t00,1,Inf,2\n", "t00,-Inf,2,2\n", "t00,1e300,2,2\n",
	"t00,1,9.3e9,2\n", "t00,1e400,2,2\n", "tenant,arrival,runtime,cores\n",
	"t00,1,2,2\nt00,1\n", "t00,1,2,2\nt00,1,2,3,4\n", "t00,3,1,1\nt01,1,1,1\nt02,2,1,1\n",
	"a,b,c,d\na,b,c,d\nt00,1,2,2\n", "t00,1,2,2\na,b,c,d\n", "x,1,y,2\n",
}

func TestParseMatchesReference(t *testing.T) {
	inputs := append([]string(nil), parseCorpus...)
	for _, name := range []string{"testdata/multitenant_small.csv", "testdata/legacy_small.csv"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, string(data))
	}
	for _, in := range inputs {
		checkMatchesReference(t, []byte(in))
	}
}

// FuzzParseTrace holds Parse to the retired parsers on arbitrary bytes:
// the same accept/reject outcome and error message, rows, row order,
// shape and warnings, and on rejection an error naming the line (or an
// empty trace). Any
// accepted trace has ascending, non-negative arrivals.
func FuzzParseTrace(f *testing.F) {
	for _, in := range parseCorpus {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, data)
	})
}

func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := Parse(bytes.NewReader(data))
	if err != nil {
		if got != nil {
			t.Errorf("Parse(%q) returned both a trace and error %v", data, err)
		}
		if !strings.HasPrefix(err.Error(), "line ") && err.Error() != "empty trace" {
			t.Errorf("Parse(%q): error without a line number: %v", data, err)
		}
	} else if !sort.SliceIsSorted(got.Rows, func(i, j int) bool { return got.Rows[i].Arrival < got.Rows[j].Arrival }) ||
		got.Rows[0].Arrival < 0 {
		t.Errorf("Parse(%q): arrivals not ascending and non-negative: %+v", data, got.Rows)
	}
	// Detect only ever looked at the first 64 KiB; past that the shape
	// rules may differ, so the reference says nothing.
	if len(data) > 64<<10 {
		return
	}
	want, werr := refParseTrace(data)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("Parse(%q): error %v, reference error %v", data, err, werr)
	case err != nil:
		// Same message, except that a scanner error now names its line.
		if err.Error() != werr.Error() && !strings.HasSuffix(err.Error(), ": "+werr.Error()) {
			t.Errorf("Parse(%q): error %q, reference %q", data, err, werr)
		}
	case got.Legacy != want.Legacy:
		t.Errorf("Parse(%q): Legacy %v, reference %v", data, got.Legacy, want.Legacy)
	case !slices.Equal(got.Rows, want.Rows):
		t.Errorf("Parse(%q) rows:\n got %+v\nwant %+v", data, got.Rows, want.Rows)
	case !slices.Equal(got.Warnings, want.Warnings):
		t.Errorf("Parse(%q) warnings %q, reference %q", data, got.Warnings, want.Warnings)
	}
}

// BenchmarkParse reads the trace shape perfbench's tenant-replay
// workload parses during setup: 3000 rows from 16 Zipf tenants.
func BenchmarkParse(b *testing.B) {
	tr, err := Generate(GenConfig{Tenants: 16, Jobs: 3000, MeanGap: 120 * time.Millisecond, MeanRuntime: 2 * time.Second, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(csv.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(csv.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
