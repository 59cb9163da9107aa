package main

import (
	"fmt"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/workloads"
)

// The benchmark's own workloads.Workload types. Each carries the modelled
// costs (work units per row, modelled row bytes, partitions) of a repo
// workload shape but computes nothing: its row functions return constant
// rows, so host time goes to the simulator and not to a payload. Every
// Run checks the row counts its actions return.

// taskRate is the executor speed the tenant-replay calibration assumes:
// work units one task slot retires per simulated second.
const taskRate = 5e7

// kv is one constant row: distinct keys keep a shuffle's map-side
// combiner from collapsing its modelled volume.
type kv struct {
	K int
	V int64
}

// constRows returns the constant rows of one partition: n rows with keys
// distinct across partitions, each valued 1.
func constRows(part, n int) []rdd.Row {
	rows := make([]rdd.Row, n)
	for i := range rows {
		rows[i] = kv{K: part*n + i, V: 1}
	}
	return rows
}

// rowSource wraps a partition's constant rows in the payload row function
// the engine calls. When tracing, each call records a payload span under
// the job's id and samples the job's network for its active flow count.
type rowSource struct {
	job  int
	rows [][]rdd.Row
	t    *tracer
	net  *netsim.Network
}

func newRowSource(job, parts, rowsPerPart int, t *tracer) *rowSource {
	s := &rowSource{job: job, rows: make([][]rdd.Row, parts), t: t}
	for p := range s.rows {
		s.rows[p] = constRows(p, rowsPerPart)
	}
	return s
}

// gen is the row function: a copy of the partition's constant rows.
func (s *rowSource) gen(part int) []rdd.Row {
	sp := s.t.begin(spanPayload, s.job)
	out := append([]rdd.Row(nil), s.rows[part]...)
	if s.t != nil && s.net != nil {
		s.t.sampleFlows(s.net.ActiveFlows())
	}
	s.t.end(sp)
	return out
}

// job is one no-payload application: Actions actions over a source of
// Parts partitions × Rows constant rows. A shuffle job puts a wide
// ReduceByKey (the shufflereuse shape) between the source and the
// actions, so every action past the first re-reads the shuffle; an action
// job runs narrow actions, the way kmeans and pagerank submit several
// engine jobs from one application. Every action must return each row
// exactly once.
type job struct {
	name string
	desc jobDesc
	src  *rowSource
}

var _ workloads.Workload = (*job)(nil)

func (w *job) Name() string            { return w.name }
func (w *job) DefaultParallelism() int { return w.desc.Parts }
func (w *job) SLO() time.Duration      { return time.Minute }
func (w *job) Run(c *engine.Cluster) (*workloads.Report, error) {
	return workloads.Timed(c, w.name, func() (string, int, error) {
		d := w.desc
		w.src.net = c.Net()
		target := rdd.NewContext().Source("rows", d.Parts, w.src.gen, d.Cost, d.RowBytes)
		if d.Shuffle {
			target = target.ReduceByKey("bykey", d.Parts,
				func(r rdd.Row) rdd.Key { return r.(kv).K },
				func(a, b rdd.Row) rdd.Row { return kv{K: a.(kv).K, V: a.(kv).V + b.(kv).V} },
				d.Cost, d.RowBytes)
		}
		want := int64(d.Parts * d.Rows)
		for a := 1; a <= d.Actions; a++ {
			res, err := c.RunJob(target, fmt.Sprintf("%s#%d", w.name, a))
			if err != nil {
				return "", 0, err
			}
			var total int64
			for _, r := range res.Rows() {
				total += r.(kv).V
			}
			if total != want || int64(len(res.Rows())) != want {
				return "", 0, fmt.Errorf("%s: action %d counted %d in %d rows, want %d",
					w.name, a, total, len(res.Rows()), want)
			}
		}
		return fmt.Sprintf("%d actions x %d rows", d.Actions, want), d.Actions, nil
	})
}
