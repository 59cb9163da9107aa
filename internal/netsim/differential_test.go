package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"splitserve/internal/simclock"
)

// The differential harness runs the same random flow program against the
// allocation-free Network and the reference driver (reference_test.go),
// each on its own clock, and requires after every operation that every
// live flow's rate, remaining bytes and completion deadline are
// bit-identical, and that the flows completed so far finished in the same
// order at the same instants.

// diffCapacities are the pools every program draws from (bytes/s). Equal
// capacities make pools tie for the tightest fair share, so the order
// progressive filling visits them in shows up in the rates (ulp-level
// differences); the 1 B/s pool pushes completions beyond the
// time.Duration range.
var diffCapacities = []float64{10, 10, 10, 100, 100, 250, 1}

type opKind uint8

const (
	opStart opKind = iota
	opCancel
	opAdvance
)

type op struct {
	kind    opKind
	bytes   float64
	rateCap float64
	pools   []int // indexes into diffCapacities; may repeat
	flow    int   // cancel target, modulo the flows started so far
	d       time.Duration
}

func (o op) String() string {
	switch o.kind {
	case opStart:
		return fmt.Sprintf("start(%g B, cap %g, pools %v)", o.bytes, o.rateCap, o.pools)
	case opCancel:
		return fmt.Sprintf("cancel(%d)", o.flow)
	}
	return fmt.Sprintf("advance(%v)", o.d)
}

type program []op

// Generate implements quick.Generator: a mix of starts over shared and
// disjoint pools (caps above and below the fair share, zero-byte and
// cap-only flows), cancels, and clock advances.
func (program) Generate(r *rand.Rand, _ int) reflect.Value {
	prog := make(program, 1+r.Intn(60))
	for i := range prog {
		switch x := r.Intn(20); {
		case x < 10:
			prog[i] = randomStart(r)
		case x < 13:
			prog[i] = op{kind: opCancel, flow: r.Intn(64)}
		default:
			var d time.Duration
			switch r.Intn(4) {
			case 0:
			case 1:
				d = time.Duration(r.Intn(1000)) * time.Millisecond
			case 2:
				d = time.Duration(r.Intn(60)) * time.Second
			default:
				d = time.Duration(r.Int63n(int64(time.Second)))
			}
			prog[i] = op{kind: opAdvance, d: d}
		}
	}
	return reflect.ValueOf(prog)
}

func randomStart(r *rand.Rand) op {
	o := op{kind: opStart}
	switch x := r.Intn(20); {
	case x == 0:
		o.bytes = 0
	case x == 1:
		o.bytes = epsilonBytes / 10
	case x == 2:
		o.bytes = 1e12
	case x < 10:
		o.bytes = float64(1 + r.Intn(5000))
	default:
		o.bytes = r.Float64() * 5000
	}
	switch x := r.Intn(10); {
	case x < 5:
	case x < 7:
		o.rateCap = 0.5 + r.Float64()*20 // below most fair shares
	case x < 9:
		o.rateCap = 100 + r.Float64()*2000 // above every fair share
	default:
		o.rateCap = float64(5 * (1 + r.Intn(20))) // round numbers tie with shares
	}
	if r.Intn(8) == 0 {
		o.rateCap = 1 + r.Float64()*100 // cap-only: no pools
		return o
	}
	// Pools 0-2 and 3-5 form two components unless a flow bridges them.
	base := 3 * r.Intn(2)
	for k := 1 + r.Intn(2); k > 0; k-- {
		o.pools = append(o.pools, base+r.Intn(3))
	}
	switch r.Intn(10) {
	case 0:
		o.pools = append(o.pools, r.Intn(len(diffCapacities))) // bridge, or repeat a pool
	case 1:
		o.pools = append(o.pools, 6) // the 1 B/s pool
	}
	return o
}

// decodeProgram turns fuzz bytes into a program, four bytes per op.
func decodeProgram(data []byte) program {
	var prog program
	for ; len(data) >= 4 && len(prog) < 256; data = data[4:] {
		b := data[:4]
		switch b[0] % 3 {
		case 0:
			o := op{kind: opStart}
			switch b[1] {
			case 0:
			case 1:
				o.bytes = epsilonBytes / 10
			case 2:
				o.bytes = 1e12
			default:
				o.bytes = float64(b[1]) * 37.25
			}
			if b[2]%4 != 0 {
				o.rateCap = float64(b[2]) * 0.75
			}
			for i := range diffCapacities {
				if b[3]&(1<<i) != 0 {
					o.pools = append(o.pools, i)
				}
			}
			if b[3]&0x80 != 0 && len(o.pools) > 0 {
				o.pools = append(o.pools, o.pools[0])
			}
			if len(o.pools) == 0 && o.rateCap <= 0 {
				o.rateCap = float64(b[2]) + 1
			}
			prog = append(prog, o)
		case 1:
			prog = append(prog, op{kind: opCancel, flow: int(b[1])})
		default:
			unit := [4]time.Duration{time.Nanosecond, time.Millisecond, time.Second, time.Minute}
			prog = append(prog, op{kind: opAdvance, d: time.Duration(b[1]) * unit[b[2]%4]})
		}
	}
	return prog
}

type completion struct {
	flow int
	at   time.Duration
}

// netPair drives the fast and reference networks in lockstep.
type netPair struct {
	fastClock, refClock *simclock.Clock
	fast                *Network
	ref                 *refNetwork
	fastPools, refPools []*Pool
	// fastFlows[i] and refFlows[i] are the i-th flow each side started.
	fastFlows, refFlows []*Flow
	fastDone, refDone   []completion
}

func newNetPair() *netPair {
	p := &netPair{
		fastClock: simclock.New(simclock.Epoch),
		refClock:  simclock.New(simclock.Epoch),
	}
	p.fast = New(p.fastClock)
	p.ref = &refNetwork{clock: p.refClock}
	for _, c := range diffCapacities {
		p.fastPools = append(p.fastPools, p.fast.NewPool("p", c))
		p.refPools = append(p.refPools, p.ref.newPool(c))
	}
	return p
}

func (p *netPair) apply(o op) error {
	switch o.kind {
	case opStart:
		id := len(p.fastFlows)
		var fp, rp []*Pool
		for _, i := range o.pools {
			fp = append(fp, p.fastPools[i])
			rp = append(rp, p.refPools[i])
		}
		p.fastFlows = append(p.fastFlows, p.fast.StartFlow(o.bytes, o.rateCap, fp, func() {
			p.fastDone = append(p.fastDone, completion{id, p.fastClock.Since(simclock.Epoch)})
		}))
		p.refFlows = append(p.refFlows, p.ref.startFlow(o.bytes, o.rateCap, rp, func() {
			p.refDone = append(p.refDone, completion{id, p.refClock.Since(simclock.Epoch)})
		}))
	case opCancel:
		if len(p.fastFlows) == 0 {
			return nil
		}
		i := o.flow % len(p.fastFlows)
		if got, want := p.fast.Cancel(p.fastFlows[i]), p.ref.cancel(p.refFlows[i]); got != want {
			return fmt.Errorf("Cancel(flow %d) = %v, reference %v", i, got, want)
		}
	case opAdvance:
		p.fastClock.RunFor(o.d)
		p.refClock.RunFor(o.d)
	}
	return nil
}

// compare checks every observable of the two sides, bit for bit.
func (p *netPair) compare() error {
	if !p.fastClock.Now().Equal(p.refClock.Now()) || p.fastClock.Fired() != p.refClock.Fired() {
		return fmt.Errorf("clock %v after %d events, reference %v after %d",
			p.fastClock.Now(), p.fastClock.Fired(), p.refClock.Now(), p.refClock.Fired())
	}
	if !slices.Equal(p.fastDone, p.refDone) {
		return fmt.Errorf("completions %v, reference %v", p.fastDone, p.refDone)
	}
	if len(p.fast.flows) != len(p.ref.flows) {
		return fmt.Errorf("%d live flows, reference %d", len(p.fast.flows), len(p.ref.flows))
	}
	pure := referenceRates(p.fast.flows)
	for i, f := range p.fast.flows {
		g := p.ref.flows[i]
		if f.id != g.id {
			return fmt.Errorf("live flow %d is #%d, reference #%d", i, f.id, g.id)
		}
		if !sameFloat(f.Rate(), g.Rate()) || !sameFloat(f.Rate(), pure[f]) {
			return fmt.Errorf("flow #%d rate %v, reference %v, reference on the live set %v", f.id, f.Rate(), g.Rate(), pure[f])
		}
		if a, b := p.fast.Remaining(f), p.ref.remaining(g); !sameFloat(a, b) {
			return fmt.Errorf("flow #%d remaining %v, reference %v", f.id, a, b)
		}
		fw, fok := f.timer.When()
		gw, gok := g.timer.When()
		if fok != gok || !fw.Equal(gw) {
			return fmt.Errorf("flow #%d completes at %v (%v), reference %v (%v)", f.id, fw, fok, gw, gok)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// runProgram applies prog to a fresh pair, comparing after every op, then
// runs both clocks dry and compares once more.
func runProgram(prog program) error {
	p := newNetPair()
	for i, o := range prog {
		if err := p.apply(o); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o, err)
		}
		if err := p.compare(); err != nil {
			return fmt.Errorf("after op %d %v: %w", i, o, err)
		}
	}
	p.fastClock.Run()
	p.refClock.Run()
	if err := p.compare(); err != nil {
		return fmt.Errorf("after draining: %w", err)
	}
	return nil
}

func TestQuickMatchesReference(t *testing.T) {
	var failure error
	prop := func(prog program) bool {
		failure = runProgram(prog)
		return failure == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatalf("%v\n%v", failure, err)
	}
}

func FuzzNetwork(f *testing.F) {
	f.Add([]byte{0, 40, 0, 0x07, 0, 80, 5, 0x03, 2, 10, 2, 0, 1, 0, 0, 0, 2, 255, 3, 0})
	f.Add([]byte{0, 2, 0, 0x40, 0, 100, 9, 0x41, 2, 200, 3, 0})
	f.Add([]byte{0, 0, 0, 0x01, 0, 1, 7, 0x00, 0, 60, 0, 0x89, 2, 1, 0, 0, 1, 1, 0, 0, 2, 30, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runProgram(decodeProgram(data)); err != nil {
			t.Fatal(err)
		}
	})
}
