package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"splitserve/internal/simrand"
)

// ParseArrivals builds n job-arrival offsets from a spec string:
//
//	poisson:MEAN     exponential inter-arrival times with the given mean
//	                 (e.g. "poisson:30s")
//	uniform:GAP      fixed spacing (e.g. "uniform:1m")
//	bursty:KxGAP     bursts of K back-to-back jobs (1 s apart), bursts
//	                 GAP apart (e.g. "bursty:4x5m")
//	trace:D1,D2,...  explicit offsets (e.g. "trace:0s,5s,5s,90s"); n is
//	                 ignored — the trace length wins
//
// Arrivals from a CSV file (the CLI's tracefile:PATH) are read by
// tracereplay; cluster itself reads no files.
//
// Offsets are returned sorted ascending. The draw is deterministic in
// (spec, n, seed).
func ParseArrivals(spec string, n int, seed uint64) ([]time.Duration, error) {
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative job count %d", n)
	}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "poisson":
		mean, err := time.ParseDuration(arg)
		if err != nil || mean <= 0 {
			return nil, fmt.Errorf("cluster: bad poisson mean %q (want e.g. poisson:30s)", arg)
		}
		rng := simrand.New(seed ^ 0xa881)
		out := make([]time.Duration, 0, n)
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			at += time.Duration(rng.Exp(1/mean.Seconds()) * float64(time.Second))
			out = append(out, at)
		}
		return out, nil
	case "uniform":
		gap, err := time.ParseDuration(arg)
		if err != nil || gap < 0 {
			return nil, fmt.Errorf("cluster: bad uniform gap %q (want e.g. uniform:1m)", arg)
		}
		out := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, time.Duration(i)*gap)
		}
		return out, nil
	case "bursty":
		sizeStr, gapStr, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("cluster: bad bursty spec %q (want e.g. bursty:4x5m)", arg)
		}
		size := 0
		if _, err := fmt.Sscanf(sizeStr, "%d", &size); err != nil || size <= 0 {
			return nil, fmt.Errorf("cluster: bad bursty burst size %q", sizeStr)
		}
		gap, err := time.ParseDuration(gapStr)
		if err != nil || gap <= 0 {
			return nil, fmt.Errorf("cluster: bad bursty gap %q", gapStr)
		}
		out := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			burst, pos := i/size, i%size
			out = append(out, time.Duration(burst)*gap+time.Duration(pos)*time.Second)
		}
		// When K×1s exceeds GAP the tail of one burst lands after the head
		// of the next; sort so the documented ascending contract holds.
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	case "trace":
		parts := strings.Split(arg, ",")
		out := make([]time.Duration, 0, len(parts))
		for _, p := range parts {
			d, err := time.ParseDuration(strings.TrimSpace(p))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("cluster: bad trace offset %q", p)
			}
			out = append(out, d)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("cluster: empty trace")
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	default:
		return nil, fmt.Errorf("cluster: unknown arrival spec %q (want poisson:MEAN, uniform:GAP, bursty:KxGAP or trace:...)", spec)
	}
}
