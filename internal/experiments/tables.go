package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// FormatResults renders scenario results as an aligned text table with a
// speed-up column relative to the named baseline scenario (the paper
// normalises against "Spark R VM").
func FormatResults(title string, results []*Result, baseline string) string {
	var base time.Duration
	for _, r := range results {
		if r.Scenario == baseline {
			base = r.ExecTime
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-28s %12s %10s %10s %6s %6s\n",
		"scenario", "exec time", "vs base", "cost USD", "vmEx", "laEx")
	for _, r := range results {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.2fx", r.ExecTime.Seconds()/base.Seconds())
		}
		fmt.Fprintf(&b, "%-28s %12s %10s %10.4f %6d %6d\n",
			r.Scenario, fmtDur(r.ExecTime), rel, r.CostUSD, r.VMExecs, r.Lambdas)
	}
	return b.String()
}

// FormatFigure7 renders Figure 7: each run's per-executor execution
// timeline, 100 columns wide, under its scenario and execution time.
func FormatFigure7(results []*Result) string {
	var b strings.Builder
	b.WriteString("== Figure 7: PageRank execution timelines ==\n")
	for _, r := range results {
		fmt.Fprintf(&b, "--- %s (execution time %v)\n", r.Scenario, r.ExecTime.Round(100*time.Millisecond))
		b.WriteString(r.Timeline(100))
	}
	return b.String()
}

// FormatResultsByWorkload groups results (e.g. Figure 5's four queries)
// and renders one table per workload.
func FormatResultsByWorkload(title string, results []*Result, baseline string) string {
	byW := map[string][]*Result{}
	var order []string
	for _, r := range results {
		if _, ok := byW[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byW[r.Workload] = append(byW[r.Workload], r)
	}
	var b strings.Builder
	for _, w := range order {
		b.WriteString(FormatResults(fmt.Sprintf("%s: %s", title, w), byW[w], baseline))
		b.WriteString("\n")
	}
	return b.String()
}

// FormatProfile renders Figure 4 sweeps.
func FormatProfile(title string, points []ProfilePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%8s %12s %12s %10s\n", "pages", "parallelism", "exec time", "cost USD")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %12d %12s %10.4f\n", p.Pages, p.Parallelism, fmtDur(p.ExecTime), p.CostUSD)
	}
	return b.String()
}

// FormatTrials renders Figure 8 statistics.
func FormatTrials(title string, stats []TrialStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-28s %12s %10s %12s %12s %7s\n",
		"scenario", "mean time", "± stddev", "mean cost", "± stddev", "trials")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-28s %12s %10s %12.4f %12.4f %7d\n",
			s.Scenario, fmtDur(s.MeanTime), fmtDur(s.StdDevTime), s.MeanCost, s.StdDevCost, s.Trials)
	}
	return b.String()
}

// Speedup returns t(base)/t(other) - formatted relative improvement the
// paper quotes, e.g. "takes 55.2% less execution time".
func Speedup(results []*Result, base, other string) (float64, error) {
	var tb, to time.Duration
	for _, r := range results {
		switch r.Scenario {
		case base:
			tb = r.ExecTime
		case other:
			to = r.ExecTime
		}
	}
	if tb == 0 || to == 0 {
		return 0, fmt.Errorf("experiments: scenarios %q/%q not found", base, other)
	}
	return 1 - to.Seconds()/tb.Seconds(), nil
}

// AverageByScenario averages exec time per scenario across workloads
// (Figure 5's "on average" statements).
func AverageByScenario(results []*Result) map[string]time.Duration {
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	for _, r := range results {
		sums[r.Scenario] += r.ExecTime
		counts[r.Scenario]++
	}
	out := make(map[string]time.Duration, len(sums))
	for k, v := range sums {
		out[k] = v / time.Duration(counts[k])
	}
	return out
}

// ScenarioNames returns the distinct scenario labels in first-seen order.
func ScenarioNames(results []*Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range results {
		if !seen[r.Scenario] {
			seen[r.Scenario] = true
			out = append(out, r.Scenario)
		}
	}
	return out
}

// SortResults orders results by workload then scenario (stable output for
// golden comparisons).
func SortResults(results []*Result) {
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Workload != results[j].Workload {
			return results[i].Workload < results[j].Workload
		}
		return results[i].Scenario < results[j].Scenario
	})
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}
