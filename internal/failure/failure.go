// Package failure implements the loss and failure models of the paper's
// reliability evaluation (§2.4, §5.2.3): permanent/transient link failures
// and a Gilbert-Elliott two-state Markov loss process that reproduces the
// correlated ("link-correlated drops within a chunk") losses the authors
// measured between Azure regions (Table 1).
//
// Both kinds of loss are sampled once per packet, at the instant its
// serialization onto the link starts (netsim.Link.SetUp): a packet is lost
// iff the link is down, or the loss process says so, at that instant. A
// packet already on the wire when a link fails still arrives.
package failure

import (
	"fmt"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// UniformLoss drops each packet independently with probability P.
type UniformLoss struct {
	P    float64
	Rand *rng.Rand
}

// Drop implements netsim.LossProcess.
func (u *UniformLoss) Drop(_ eventq.Time, _ *netsim.Packet) bool {
	return u.Rand.Float64() < u.P
}

// GilbertElliott is the classic two-state Markov loss model: a Good state
// with loss probability LossGood and a Bad state with loss probability
// LossBad, with per-packet transition probabilities PGoodToBad and
// PBadToGood. Sojourns in the Bad state produce the bursty, correlated
// losses observed in Table 1.
type GilbertElliott struct {
	PGoodToBad float64 // transition probability Good→Bad, evaluated per packet
	PBadToGood float64 // transition probability Bad→Good, evaluated per packet
	LossGood   float64 // loss probability while Good (often 0)
	LossBad    float64 // loss probability while Bad

	Rand *rng.Rand
	bad  bool
}

// Validate reports parameter errors.
func (g *GilbertElliott) Validate() error {
	for _, p := range []float64{g.PGoodToBad, g.PBadToGood, g.LossGood, g.LossBad} {
		// Negated range check so NaN (every comparison false) is rejected
		// too, not silently accepted.
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("failure: probability %v out of [0,1]", p)
		}
	}
	if g.Rand == nil {
		return fmt.Errorf("failure: GilbertElliott needs a Rand")
	}
	return nil
}

// Drop implements netsim.LossProcess, advancing the Markov chain one step
// per packet.
func (g *GilbertElliott) Drop(_ eventq.Time, _ *netsim.Packet) bool {
	if g.bad {
		if g.Rand.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if g.Rand.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return g.Rand.Float64() < p
}

// StationaryLossRate returns the long-run per-packet loss probability of
// the model. The absorbing corners fall out of the formula: PBadToGood == 0
// with PGoodToBad > 0 absorbs into Bad (pBad = 1, returns LossBad), and
// both transitions zero means the chain never leaves its initial (Good)
// state, so the Good loss rate is returned.
func (g *GilbertElliott) StationaryLossRate() float64 {
	denom := g.PGoodToBad + g.PBadToGood
	if denom == 0 {
		return g.LossGood
	}
	pBad := g.PGoodToBad / denom
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}

// Table1Setup identifies one of the two measured datacenter pairs.
type Table1Setup int

// The paper's two measurement setups.
const (
	Setup1 Table1Setup = iota // 65 ms RTT, mean loss rate 5.01e-5
	Setup2                    // 33 ms RTT, mean loss rate 1.22e-5
)

// NewTable1Loss returns a Gilbert-Elliott process calibrated to the
// corresponding Table 1 measurement: the stationary loss rate matches the
// reported average, and Bad-state sojourns are long enough (mean ≈ 3
// packets) that multi-loss 10-packet chunks occur at rates comparable to
// the paper's "Losses Within a Block" rows — the property that motivates
// MDS coding over per-packet retransmission.
func NewTable1Loss(setup Table1Setup, r *rng.Rand) *GilbertElliott {
	var target float64
	switch setup {
	case Setup1:
		target = 5.01e-5
	case Setup2:
		target = 1.22e-5
	default:
		panic(fmt.Sprintf("failure: unknown Table 1 setup %d", setup))
	}
	// Bad sojourn geometric with mean 1/pBG ≈ 3.3 packets; Bad-state loss
	// probability 0.5 gives visible burstiness.
	g, err := NewCalibratedLoss(target, 0.3, 0.5, r)
	if err != nil {
		panic(err) // both Table 1 targets are far below lossBad; cannot fail
	}
	return g
}

// NewCalibratedLoss solves a Gilbert-Elliott process for a target
// stationary loss rate given the Bad-state dynamics: PGoodToBad is chosen
// so that the stationary Bad-state probability times lossBad equals target
// (LossGood is 0). Unlike the raw struct, it rejects degenerate inputs
// instead of solving outside [0,1]: NaNs, targets at or above lossBad
// (pBad ≥ 1 would need a Bad-absorbed chain, pGB → ±Inf), and solutions
// whose PGoodToBad exceeds 1.
func NewCalibratedLoss(target, pBadToGood, lossBad float64, r *rng.Rand) (*GilbertElliott, error) {
	if !(target >= 0) || !(lossBad > 0) {
		return nil, fmt.Errorf("failure: bad calibration target %v / lossBad %v", target, lossBad)
	}
	if target >= lossBad {
		return nil, fmt.Errorf("failure: target %v unreachable with Bad-state loss %v (needs pBad >= 1)",
			target, lossBad)
	}
	// pBad = target/lossBad; pBad = pGB/(pGB+pBG) → pGB = pBG·pBad/(1-pBad).
	pBad := target / lossBad
	pGB := pBadToGood * pBad / (1 - pBad)
	g := &GilbertElliott{
		PGoodToBad: pGB,
		PBadToGood: pBadToGood,
		LossBad:    lossBad,
		Rand:       r,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ScheduleLinkDown fails the link at time at and (if recoverAfter > 0)
// restores it recoverAfter later.
func ScheduleLinkDown(sched *eventq.Scheduler, link *netsim.Link, at, recoverAfter eventq.Time) {
	sched.Schedule(at, func() { link.SetUp(false) })
	if recoverAfter > 0 {
		sched.Schedule(at+recoverAfter, func() { link.SetUp(true) })
	}
}

// Flapper periodically fails and restores a link, modelling a flaky path.
type Flapper struct {
	Link     *netsim.Link
	DownFor  eventq.Time
	UpFor    eventq.Time
	stopTime eventq.Time
}

// Start begins flapping (down DownFor, up UpFor, repeating) until stop.
func (f *Flapper) Start(sched *eventq.Scheduler, start, stop eventq.Time) {
	if f.DownFor <= 0 || f.UpFor <= 0 {
		panic("failure: Flapper needs positive durations")
	}
	f.stopTime = stop
	var down func()
	var up func()
	down = func() {
		if sched.Now() >= f.stopTime {
			f.Link.SetUp(true)
			return
		}
		f.Link.SetUp(false)
		sched.After(f.DownFor, up)
	}
	up = func() {
		f.Link.SetUp(true)
		if sched.Now() >= f.stopTime {
			return
		}
		sched.After(f.UpFor, down)
	}
	sched.Schedule(start, down)
}
