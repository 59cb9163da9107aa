package cluster

import (
	"sort"
	"strings"
	"testing"
)

// FuzzParseArrivals feeds arbitrary spec strings, job counts and seeds to
// the arrival-spec parser. The contract under fuzzing: never panic —
// malformed input returns an error — and any accepted spec yields offsets
// that are sorted, non-negative and (except trace, whose length wins)
// exactly n long. Tracefile specs are read by tracereplay, so here they
// are only ever errors.
func FuzzParseArrivals(f *testing.F) {
	for _, spec := range []string{
		"poisson:30s", "uniform:1m", "bursty:4x5m", "bursty:10x5s",
		"trace:0s,5s,5s,90s",
		"poisson:-3s", "bursty:0x1s", "bursty:4x", "trace:", "trace:,",
		"nope", "", ":", "poisson:", "uniform:nan", "trace:-1s",
		"tracefile:", "tracefile:/nonexistent", "tracefile:/dev/null",
	} {
		f.Add(spec, 4, uint64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, n int, seed uint64) {
		if n > 1<<12 {
			n %= 1 << 12 // keep allocations sane; negatives go through as-is
		}
		out, err := ParseArrivals(spec, n, seed)
		if strings.HasPrefix(spec, "tracefile:") && err == nil {
			t.Errorf("ParseArrivals(%q) accepted a tracefile spec; cluster reads no files", spec)
		}
		if err != nil {
			if out != nil {
				t.Errorf("ParseArrivals(%q, %d) returned both offsets and error %v", spec, n, err)
			}
			return
		}
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
			t.Errorf("ParseArrivals(%q, %d) not ascending: %v", spec, n, out)
		}
		for _, d := range out {
			if d < 0 {
				t.Errorf("ParseArrivals(%q, %d) produced negative offset %v", spec, n, d)
			}
		}
	})
}
