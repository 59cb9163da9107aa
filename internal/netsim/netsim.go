// Package netsim models shared bandwidth resources for the SplitServe
// simulator: EBS volumes, VM NICs, Lambda egress links, and the S3 frontend
// are all Pools with a byte/s capacity; transfers are Flows that traverse
// one or more pools.
//
// Active flows share each pool max-min fairly: rates are assigned by
// progressive filling (water-filling), honouring per-flow rate caps, and the
// whole allocation is refilled whenever a flow starts or finishes. The
// filling allocates nothing: its scratch state lives on the pools and
// flows, and the network keeps its busy pools in a slice sorted by creation
// ID. Each flow's completion timer is then re-armed in place, which costs
// one clock event, rather than rebuilt around a new closure. The original
// map-based refill is kept in reference_test.go as the differential
// reference the fast path must match bit for bit.
//
// This reproduces the paper's central bandwidth story — e.g. a single
// 750 Mbps EBS volume under a colocated master+HDFS node throttling 16
// concurrent shuffle readers — with event-accurate completion times.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"splitserve/internal/simclock"
)

// Epsilon below which a flow's remaining bytes count as zero.
const epsilonBytes = 1e-6

// Network owns pools and active flows and drives rate recomputation on the
// simulation clock.
type Network struct {
	clock *simclock.Clock
	flows []*Flow
	// active holds every pool with at least one flow, sorted by pool ID:
	// the order progressive filling visits pools in.
	active []*Pool
	// unassigned counts the flows still waiting for a rate during a
	// refill.
	unassigned int
	seq        int
	poolSeq    int
}

// Pool is a shared bandwidth resource (bytes per second).
type Pool struct {
	id       int
	name     string
	capacity float64
	flows    []*Flow

	// Progressive-filling state, meaningful only inside recompute:
	// capacity not yet handed out, and flows not yet given a rate.
	residual float64
	left     int
}

// Flow is a transfer of a fixed number of bytes across a set of pools,
// optionally limited by its own rate cap (e.g. a Lambda's memory-
// proportional egress bandwidth).
type Flow struct {
	id        int
	remaining float64
	rateCap   float64 // 0 means unlimited
	pools     []*Pool
	rate      float64
	settledAt time.Time
	timer     *simclock.Timer
	fire      func() // completion event body, built once per flow
	done      func()
	finished  bool
	assigned  bool // progressive-filling state: rate fixed this refill
}

// New returns a Network driven by clock.
func New(clock *simclock.Clock) *Network {
	return &Network{clock: clock}
}

// NewPool creates a bandwidth pool. Capacity must be positive.
func (n *Network) NewPool(name string, capacityBytesPerSec float64) *Pool {
	if capacityBytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: pool %q with non-positive capacity", name))
	}
	n.poolSeq++
	return &Pool{
		id:       n.poolSeq,
		name:     name,
		capacity: capacityBytesPerSec,
	}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Capacity returns the pool's capacity in bytes/s.
func (p *Pool) Capacity() float64 { return p.capacity }

// ActiveFlows returns the number of flows currently traversing the pool.
func (p *Pool) ActiveFlows() int { return len(p.flows) }

// StartFlow begins a transfer of bytes across pools, with an optional
// per-flow rate cap (0 = unlimited), calling done when the last byte
// arrives. A flow must traverse at least one pool or carry a positive cap.
// Zero-byte flows complete on the next event-loop tick.
func (n *Network) StartFlow(bytes float64, rateCap float64, pools []*Pool, done func()) *Flow {
	if bytes < 0 {
		panic("netsim: negative flow size")
	}
	if len(pools) == 0 && rateCap <= 0 {
		panic("netsim: flow with neither pools nor a rate cap would be infinitely fast")
	}
	f := &Flow{
		id:        n.seq,
		remaining: bytes,
		rateCap:   rateCap,
		pools:     append([]*Pool(nil), pools...),
		settledAt: n.clock.Now(),
		done:      done,
	}
	f.fire = func() { n.complete(f) }
	n.seq++
	n.flows = append(n.flows, f)
	for _, p := range f.pools {
		p.flows = append(p.flows, f)
		if len(p.flows) == 1 {
			i, _ := slices.BinarySearchFunc(n.active, p.id, byID)
			n.active = slices.Insert(n.active, i, p)
		}
	}
	n.recompute()
	return f
}

func byID(p *Pool, id int) int { return p.id - id }

// Cancel aborts an in-progress flow (e.g. its executor died). The done
// callback is not invoked. It reports whether the flow was still active.
func (n *Network) Cancel(f *Flow) bool {
	if f == nil || f.finished {
		return false
	}
	n.settleAll()
	n.detach(f)
	n.recompute()
	return true
}

// Remaining returns the flow's unfinished byte count as of the current
// virtual time.
func (n *Network) Remaining(f *Flow) float64 {
	if f.finished {
		return 0
	}
	elapsed := n.clock.Since(f.settledAt).Seconds()
	return math.Max(0, f.remaining-f.rate*elapsed)
}

// Rate returns the flow's current allocated rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// ActiveFlows returns the number of in-flight flows network-wide.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// detach removes a flow from the network and its pools and cancels its
// completion timer. A pool left without flows leaves the active set.
func (n *Network) detach(f *Flow) {
	f.finished = true
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	n.flows = removeFlow(n.flows, f)
	for _, p := range f.pools {
		p.flows = removeFlow(p.flows, f)
		if len(p.flows) == 0 {
			if i, ok := slices.BinarySearchFunc(n.active, p.id, byID); ok {
				n.active = slices.Delete(n.active, i, i+1)
			}
		}
	}
}

func removeFlow(flows []*Flow, f *Flow) []*Flow {
	for i, x := range flows {
		if x == f {
			return append(flows[:i], flows[i+1:]...)
		}
	}
	return flows
}

// settleAll folds elapsed progress into every flow's remaining count so a
// fresh rate assignment can start from "now".
func (n *Network) settleAll() {
	now := n.clock.Now()
	for _, f := range n.flows {
		elapsed := now.Sub(f.settledAt).Seconds()
		if elapsed > 0 && f.rate > 0 {
			f.remaining = math.Max(0, f.remaining-f.rate*elapsed)
		}
		f.settledAt = now
	}
}

// recompute settles progress, runs progressive filling to assign max-min
// fair rates, and reschedules completion events.
func (n *Network) recompute() {
	n.settleAll()

	// Progressive filling. Each busy pool starts with its full capacity
	// shared by all its flows. All iteration is over insertion-ordered
	// slices (pools in creation-ID order) so rate assignment and event
	// scheduling are fully deterministic.
	for _, p := range n.active {
		p.residual = p.capacity
		p.left = len(p.flows)
	}
	for _, f := range n.flows {
		f.rate = 0
		f.assigned = false
	}
	n.unassigned = len(n.flows)

	for n.unassigned > 0 {
		// Fair share at the tightest pool.
		minShare := math.Inf(1)
		for _, p := range n.active {
			if p.left > 0 {
				share := p.residual / float64(p.left)
				if share < minShare {
					minShare = share
				}
			}
		}
		// A flow capped below the fair share takes its cap.
		minCap := math.Inf(1)
		for _, f := range n.flows {
			if !f.assigned && f.rateCap > 0 && f.rateCap < minCap {
				minCap = f.rateCap
			}
		}
		if minCap < minShare {
			for _, f := range n.flows {
				if !f.assigned && f.rateCap > 0 && f.rateCap <= minCap {
					n.assign(f, f.rateCap)
				}
			}
			continue
		}
		if math.IsInf(minShare, 1) {
			// Only capless, pool-less flows remain (cannot happen given the
			// StartFlow invariant), or caps equal infinity; guard anyway.
			for _, f := range n.flows {
				if !f.assigned {
					n.assign(f, math.Max(f.rateCap, 1))
				}
			}
			break
		}
		// Assign flows bottlenecked at a pool whose share equals minShare.
		progressed := false
		for _, p := range n.active {
			if p.left == 0 {
				continue
			}
			share := p.residual / float64(p.left)
			if share <= minShare*(1+1e-12) {
				for _, f := range p.flows {
					if f.assigned {
						continue
					}
					rate := share
					if f.rateCap > 0 && f.rateCap < rate {
						rate = f.rateCap
					}
					n.assign(f, rate)
					progressed = true
				}
			}
		}
		if !progressed {
			// Defensive: should be unreachable; avoid an infinite loop.
			for _, f := range n.flows {
				if !f.assigned {
					n.assign(f, minShare)
				}
			}
		}
	}

	n.reschedule()
}

// assign fixes f's rate for this refill and takes it out of every pool it
// traverses.
func (n *Network) assign(f *Flow, rate float64) {
	f.rate = rate
	f.assigned = true
	n.unassigned--
	for _, p := range f.pools {
		p.residual -= rate
		if p.residual < 0 {
			p.residual = 0
		}
		p.left--
	}
}

// reschedule moves every flow's completion timer to match its new rate, in
// flow order: a pending timer is re-armed (its old queue entry becomes a
// ghost and the new one takes a fresh sequence number, exactly as a
// cancel followed by a new schedule would), and a flow without one gets a
// new timer. A stalled flow, or one whose completion lies beyond the
// time.Duration range, has no timer; a future recompute will revive it.
func (n *Network) reschedule() {
	for _, f := range n.flows {
		d, ok := time.Duration(0), true
		switch {
		case f.remaining <= epsilonBytes: // done: complete on the next tick
		case f.rate <= 0:
			ok = false
		default:
			d, ok = toDuration(f.remaining / f.rate)
		}
		if !ok {
			f.timer.Cancel()
			f.timer = nil
			continue
		}
		if !f.timer.Reschedule(d) {
			f.timer = n.clock.After(d, f.fire)
		}
	}
}

// complete is a flow's completion event: the last byte arrived.
func (n *Network) complete(f *Flow) {
	if f.finished {
		return
	}
	n.settleAll()
	f.remaining = 0
	n.detach(f)
	n.recompute()
	if f.done != nil {
		f.done()
	}
}

// toDuration converts secs to a Duration, reporting false when the value is
// NaN or outside the Duration range: Go leaves out-of-range float-to-integer
// conversions to the implementation (amd64 yields math.MinInt64, a negative
// delay).
func toDuration(secs float64) (time.Duration, bool) {
	ns := secs * float64(time.Second)
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(ns), true
}

// TransferTime is a convenience estimate: the time a transfer of bytes
// would take alone at the given bandwidth. Useful for fixed-cost phases
// that do not contend (e.g. local memory copies). It panics if the result
// does not fit in a time.Duration (about 292 years).
func TransferTime(bytes, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	d, ok := toDuration(bytes / bytesPerSec)
	if !ok {
		panic(fmt.Sprintf("netsim: transfer of %g bytes at %g B/s is beyond the time.Duration range", bytes, bytesPerSec))
	}
	return d
}

// Mbps converts megabits/s to bytes/s.
func Mbps(v float64) float64 { return v * 1e6 / 8 }
