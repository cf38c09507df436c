package baselines

import (
	"math"

	"uno/internal/eventq"
	"uno/internal/transport"
)

// Annulus is the near-source dual-loop add-on of Saeed et al. (SIGCOMM'20),
// which the Uno paper's footnote 4 defers to future work: WAN flows keep
// their slow end-to-end control loop (the wrapped controller), but
// congestion that forms *near the source* — anywhere inside the source
// datacenter, including the WAN uplink queues — is signalled by QCN
// congestion-notification messages from the overloaded switch straight
// back to the sender, which reacts within an intra-DC RTT instead of an
// inter-DC one.
//
// The fast loop is a QCN-style rate cap layered *on top of* the wrapped
// controller: a CNM with feedback fb multiplies the cap by (1 − fb/2), and
// the cap recovers multiplicatively (+2% per reaction period) while no
// CNMs arrive. The cap is enforced after every inner-controller action, so
// rate-based controllers that reprogram pacing each round (BBR) cannot
// silently undo it. Requires QCN enabled in the fabric (the topology's
// QCN knob).
type Annulus struct {
	// Inner is the wrapped end-to-end controller (e.g. BBR for WAN flows).
	Inner transport.CongestionControl

	capBps   float64 // near-source rate cap; +Inf when inactive
	lastCut  eventq.Time
	lastGrow eventq.Time

	// Cuts counts near-source reactions (telemetry).
	Cuts int
}

// annulusReactionPeriod rate-limits near-source cuts and paces the cap's
// recovery: 20 µs, about one intra-DC RTT.
const annulusReactionPeriod = 20 * eventq.Microsecond

// NewAnnulus wraps inner with the near-source loop.
func NewAnnulus(inner transport.CongestionControl) *Annulus {
	return &Annulus{Inner: inner, capBps: math.Inf(1)}
}

// Name implements transport.CongestionControl.
func (a *Annulus) Name() string { return a.Inner.Name() + "+annulus" }

// Init implements transport.CongestionControl.
func (a *Annulus) Init(c *transport.Conn) {
	a.lastCut = c.Now() - annulusReactionPeriod
	a.lastGrow = c.Now()
	a.Inner.Init(c)
	a.enforce(c)
}

// currentRate estimates the flow's present sending rate in bits/s.
func (a *Annulus) currentRate(c *transport.Conn) float64 {
	if rate := c.PacingRate(); rate > 0 {
		return rate
	}
	rtt := c.SRTT()
	if rtt <= 0 {
		rtt = c.Params().BaseRTT
	}
	return 8 * c.Cwnd() / rtt.Seconds()
}

// enforce applies the cap to whatever the inner controller programmed.
func (a *Annulus) enforce(c *transport.Conn) {
	if math.IsInf(a.capBps, 1) {
		return
	}
	// Multiplicative recovery while the fast loop is quiet.
	now := c.Now()
	for now-a.lastGrow >= annulusReactionPeriod {
		a.capBps *= 1.02
		a.lastGrow += annulusReactionPeriod
	}
	rtt := c.SRTT()
	if rtt <= 0 {
		rtt = c.Params().BaseRTT
	}
	maxCwnd := a.capBps / 8 * rtt.Seconds()
	if c.Cwnd() > maxCwnd {
		c.SetCwnd(maxCwnd)
	}
	if rate := c.PacingRate(); rate > a.capBps {
		c.SetPacingRate(a.capBps)
	}
	// Once the cap exceeds any plausible line rate, deactivate it.
	if a.capBps > 1e13 {
		a.capBps = math.Inf(1)
	}
}

// OnAck implements transport.CongestionControl.
func (a *Annulus) OnAck(c *transport.Conn, info transport.AckInfo) {
	a.Inner.OnAck(c, info)
	a.enforce(c)
}

// OnNack implements transport.CongestionControl.
func (a *Annulus) OnNack(c *transport.Conn) {
	a.Inner.OnNack(c)
	a.enforce(c)
}

// OnTimeout implements transport.CongestionControl.
func (a *Annulus) OnTimeout(c *transport.Conn) {
	a.Inner.OnTimeout(c)
	a.enforce(c)
}

// OnCnm implements transport.CnmReceiver: the fast near-source loop.
func (a *Annulus) OnCnm(c *transport.Conn, fb float64) {
	now := c.Now()
	if now-a.lastCut < annulusReactionPeriod {
		return
	}
	a.lastCut = now
	a.lastGrow = now
	if fb < 0 {
		fb = 0
	} else if fb > 1 {
		fb = 1
	}
	base := a.capBps
	if math.IsInf(base, 1) {
		base = a.currentRate(c)
	}
	a.capBps = base * (1 - fb/2)
	a.Cuts++
	a.enforce(c)
}

// CapBps exposes the current near-source cap (for tests); +Inf when the
// fast loop is inactive.
func (a *Annulus) CapBps() float64 { return a.capBps }
