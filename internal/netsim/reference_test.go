package netsim

import (
	"math"
	"sort"
	"time"

	"splitserve/internal/simclock"
)

// This file keeps the original netsim refill as the reference the
// allocation-free Network.recompute must reproduce bit for bit, the role
// heapq.go plays for simclock's timer wheel. referenceRates is the old
// map-based progressive filling, verbatim except that it writes rates to
// a map instead of the flows, so it is a pure function of the live flow
// set. refNetwork wraps it in the old driver: the same settle arithmetic,
// and every completion timer cancelled and rebuilt on every refill. It
// shares the Pool and Flow types but none of the fast path's fill state
// (Network.active, Pool.residual/left, Flow.assigned/fire).

// referenceRates assigns max-min fair rates to flows by progressive
// filling, reading each flow's cap and pools and each pool's capacity and
// membership, and writing nothing.
func referenceRates(flows []*Flow) map[*Flow]float64 {
	rates := make(map[*Flow]float64, len(flows))

	// Progressive filling. Residual capacity per pool; unassigned flows.
	// All iteration is over insertion-ordered slices (pools sorted by
	// creation ID) so rate assignment and event scheduling are fully
	// deterministic.
	residual := make(map[*Pool]float64)
	remainingFlows := make(map[*Pool]int)
	var pools []*Pool
	seenPool := make(map[*Pool]bool)
	for _, f := range flows {
		for _, p := range f.pools {
			if !seenPool[p] {
				seenPool[p] = true
				pools = append(pools, p)
			}
		}
	}
	sort.Slice(pools, func(i, j int) bool { return pools[i].id < pools[j].id })
	for _, p := range pools {
		residual[p] = p.capacity
		remainingFlows[p] = len(p.flows)
	}

	unassigned := make(map[*Flow]struct{}, len(flows))
	for _, f := range flows {
		rates[f] = 0
		unassigned[f] = struct{}{}
	}

	assign := func(f *Flow, rate float64) {
		rates[f] = rate
		delete(unassigned, f)
		for _, p := range f.pools {
			residual[p] -= rate
			if residual[p] < 0 {
				residual[p] = 0
			}
			remainingFlows[p]--
		}
	}

	for len(unassigned) > 0 {
		// Fair share at the tightest pool.
		minShare := math.Inf(1)
		for _, p := range pools {
			if remainingFlows[p] > 0 {
				share := residual[p] / float64(remainingFlows[p])
				if share < minShare {
					minShare = share
				}
			}
		}
		// A flow capped below the fair share takes its cap.
		minCap := math.Inf(1)
		for f := range unassigned {
			if f.rateCap > 0 && f.rateCap < minCap {
				minCap = f.rateCap
			}
		}
		if minCap < minShare {
			for _, f := range flows {
				if _, ok := unassigned[f]; ok && f.rateCap > 0 && f.rateCap <= minCap {
					assign(f, f.rateCap)
				}
			}
			continue
		}
		if math.IsInf(minShare, 1) {
			// Only capless, pool-less flows remain (cannot happen given the
			// StartFlow invariant), or caps equal infinity; guard anyway.
			for _, f := range flows {
				if _, ok := unassigned[f]; ok {
					assign(f, math.Max(f.rateCap, 1))
				}
			}
			break
		}
		// Assign flows bottlenecked at a pool whose share equals minShare.
		progressed := false
		for _, p := range pools {
			if remainingFlows[p] == 0 {
				continue
			}
			share := residual[p] / float64(remainingFlows[p])
			if share <= minShare*(1+1e-12) {
				for _, f := range p.flows {
					if _, ok := unassigned[f]; !ok {
						continue
					}
					rate := share
					if f.rateCap > 0 && f.rateCap < rate {
						rate = f.rateCap
					}
					assign(f, rate)
					progressed = true
				}
			}
		}
		if !progressed {
			// Defensive: should be unreachable; avoid an infinite loop.
			for _, f := range flows {
				if _, ok := unassigned[f]; ok {
					assign(f, minShare)
				}
			}
		}
	}
	return rates
}

// refNetwork is the original Network driver around referenceRates.
type refNetwork struct {
	clock   *simclock.Clock
	flows   []*Flow
	seq     int
	poolSeq int
}

func (n *refNetwork) newPool(capacity float64) *Pool {
	n.poolSeq++
	return &Pool{id: n.poolSeq, capacity: capacity}
}

func (n *refNetwork) startFlow(bytes, rateCap float64, pools []*Pool, done func()) *Flow {
	f := &Flow{
		id:        n.seq,
		remaining: bytes,
		rateCap:   rateCap,
		pools:     append([]*Pool(nil), pools...),
		settledAt: n.clock.Now(),
		done:      done,
	}
	n.seq++
	n.flows = append(n.flows, f)
	for _, p := range f.pools {
		p.flows = append(p.flows, f)
	}
	n.recompute()
	return f
}

func (n *refNetwork) cancel(f *Flow) bool {
	if f == nil || f.finished {
		return false
	}
	n.settleAll()
	n.detach(f)
	n.recompute()
	return true
}

func (n *refNetwork) remaining(f *Flow) float64 {
	if f.finished {
		return 0
	}
	elapsed := n.clock.Since(f.settledAt).Seconds()
	return math.Max(0, f.remaining-f.rate*elapsed)
}

func (n *refNetwork) detach(f *Flow) {
	f.finished = true
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	n.flows = removeFlow(n.flows, f)
	for _, p := range f.pools {
		p.flows = removeFlow(p.flows, f)
	}
}

func (n *refNetwork) settleAll() {
	now := n.clock.Now()
	for _, f := range n.flows {
		elapsed := now.Sub(f.settledAt).Seconds()
		if elapsed > 0 && f.rate > 0 {
			f.remaining = math.Max(0, f.remaining-f.rate*elapsed)
		}
		f.settledAt = now
	}
}

func (n *refNetwork) recompute() {
	n.settleAll()
	rates := referenceRates(n.flows)
	for _, f := range n.flows {
		f.rate = rates[f]
	}
	n.reschedule()
}

// reschedule replaces every flow's completion timer according to its new
// rate. The one departure from the original is the range check: a
// completion beyond the time.Duration range is stalled, not converted.
func (n *refNetwork) reschedule() {
	for _, f := range n.flows {
		if f.timer != nil {
			f.timer.Cancel()
			f.timer = nil
		}
		if f.remaining <= epsilonBytes {
			n.completeAt(f, 0)
			continue
		}
		if f.rate <= 0 {
			continue // stalled; a future recompute will revive it
		}
		d, ok := toDuration(f.remaining / f.rate)
		if !ok {
			continue
		}
		n.completeAt(f, d)
	}
}

func (n *refNetwork) completeAt(f *Flow, d time.Duration) {
	f.timer = n.clock.After(d, func() {
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
	})
}
