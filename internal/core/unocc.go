// Package core implements the paper's primary contribution: UnoCC, the
// unified intra/inter-datacenter congestion controller (§4.1, Algorithm 1),
// and UnoRC's load balancer UnoLB (§4.2, Algorithm 2). Together with the
// erasure-coded transport framing (internal/transport + internal/ec) they
// form the complete Uno system of Fig 5.
package core

import (
	"math"

	"uno/internal/eventq"
	"uno/internal/transport"
)

// UnoCC's tuning values. α, β and K are the paper's Table 2; the EWMA gain
// and the window cap follow Gemini, whose AI and MD factors UnoCC adopts
// (§4.1.1); the last three are implementation choices the paper leaves
// open (EXPERIMENTS.md, "Known deviations", 3, 5 and 6).
const (
	// alphaFrac is the AI constant α as a fraction of BDP.
	alphaFrac = 0.001
	// qaBeta is Quick Adapt's trigger ratio β.
	qaBeta = 0.5
	// kDivisor sets the MD constant K = IntraBDP / kDivisor.
	kDivisor = 7
	// ewmaGain is the gain of the ECN-fraction moving average E.
	ewmaGain = 0.125
	// maxCwndBDPs caps window growth at this many BDPs; the initial
	// window is one BDP.
	maxCwndBDPs = 2

	// gentleFloor bounds MD_scale from below: a single "×0.3" gentle step.
	// Algorithm 1's literal MD_scale ×= 0.3 drives the scale → 0 over
	// consecutive phantom-congested epochs; with the phantom queue
	// saturated every ACK is then marked, AI freezes, and windows deadlock
	// at arbitrary values — and a deeply-decayed scale also neuters the
	// phantom's early-warning signal for long-RTT flows, letting them
	// overrun the physical queue before reacting. The floor keeps the
	// gentle reduction gentle but effective (deviation 3).
	gentleFloor = 0.3
	// phantomDelayThresh is the relative-delay ceiling below which
	// ECN-marked epochs are attributed to phantom queues ("delay == 0" in
	// Algorithm 1). It must be an *absolute* queuing-delay bound shared by
	// every flow — a fraction of the flow's own RTT would classify the
	// same bottleneck state as physical for short-RTT flows and phantom
	// for long-RTT ones, destroying fairness. 4 µs is ≈12 MTU
	// serializations at 100 Gb/s, well below any RED threshold
	// (deviation 5).
	phantomDelayThresh = 4 * eventq.Microsecond
	// pacingGain scales the cwnd/SRTT pacing rate, leaving headroom so
	// pacing shapes bursts without becoming the limit. The paper's Uno
	// paces at the NIC (§6 "Uno uses hardware pacing"); without pacing a
	// long-RTT flow transmits its whole window as one line-rate burst,
	// which drives the phantom queue through its marking band and ECN-
	// marks the flow's own burst tail far more often than smooth intra-DC
	// traffic sharing the same bottleneck (deviation 6).
	pacingGain = 1.25
)

// CCConfig is what varies between UnoCC instances: the flow's path and the
// ablation switches. The tuning values are the constants above.
type CCConfig struct {
	// BDP is this flow's bandwidth-delay product in wire bytes
	// (line rate × the flow's base RTT).
	BDP float64
	// IntraBDP is the intra-DC BDP in wire bytes, used for the MD constant
	// K = IntraBDP/7 and shared by all flows.
	IntraBDP float64
	// BaseRTT is the flow's unloaded RTT.
	BaseRTT eventq.Time
	// EpochPeriod is the unified MD granularity — the paper sets it from
	// the *intra-DC* RTT for both intra- and inter-DC flows (§4.1.1).
	// Zero defaults to BaseRTT (per-flow granularity; used by the epoch
	// ablation and by Gemini).
	EpochPeriod eventq.Time

	// DisableQA turns Quick Adapt off (ablation).
	DisableQA bool
	// DisablePhantomAware turns the gentle-MD phantom/physical
	// disambiguation off (ablation; also appropriate when the fabric has
	// no phantom queues).
	DisablePhantomAware bool
}

// withDefaults fills a zero EpochPeriod.
func (c CCConfig) withDefaults() CCConfig {
	if c.EpochPeriod <= 0 {
		c.EpochPeriod = c.BaseRTT
	}
	return c
}

// UnoCC implements Algorithm 1: per-ACK additive increase, per-epoch
// multiplicative decrease driven by the EWMA of the ECN-marked fraction,
// gentle decrease when only phantom queues are congested, and Quick Adapt
// under extreme congestion. One instance controls one flow.
type UnoCC struct {
	cfg   *CCConfig // defaulted and immutable; shared by equal flows of a Pool
	alpha float64

	// Epoch state (§4.1.1). An epoch terminates on the first ACK of a
	// packet sent at or after epochStart.
	epochStart  eventq.Time
	epochAcks   int
	epochMarked int
	minRelDelay eventq.Time
	ewmaECN     float64 // E in the paper
	mdScale     float64 // MD_scale in Algorithm 1

	// Quick Adapt state (§4.1.2). The first QA window opens at the first
	// ACK: a window aligned with flow start would always observe zero
	// ACKed bytes (ACKs only begin one RTT in) and spuriously collapse
	// the window.
	qaArmed   bool
	qaBytes   int64           // bytes ACKed during the current QA window
	qaSkip    bool            // cool-down: skip the next QA/MD window
	qaTimer   eventq.Timer    // reusable once-per-RTT tick, bound on first arm
	conn      *transport.Conn // the flow, for qaTimer's callback; nil until bound
	mdMutedTo eventq.Time     // MD suppressed until this time after a QA fire

	// Per-RTT MD budget: epochs run at intra-DC granularity while ECN
	// echoes lag by the flow's own RTT, so unbounded per-epoch cuts
	// compound against stale feedback and overshoot badly for long-RTT
	// flows. Total multiplicative reduction within one RTT window is
	// bounded to half the window at the window's start (a DCTCP-style
	// worst-case halving per RTT).
	mdWindowStart eventq.Time
	mdWindowCwnd  float64

	// Recovery ramp state: a full RTT with zero ECN marks while the window
	// sits below ssthresh grows it ×1.5 toward ssthresh. ssthresh tracks
	// the operating point (it is set to the post-cut window by every MD,
	// timeout, and Quick Adapt), so the ramp only re-opens windows after
	// a collapse below the last known-sustainable point and never probes
	// beyond it — steady-state probing stays with the gentle AI, keeping
	// multiplicative bursts out of shallow buffers. (The paper specifies
	// only the steady-state AI/MD; this is the recovery regime every
	// deployed transport needs, and α = 0.1% of BDP per RTT cannot fill
	// that role.)
	ssthresh        float64
	rampWindowStart eventq.Time
	rampMarked      bool
	rampAcks        int // ACKs observed in the current ramp window
	cleanStreak     int // consecutive fully-clean ramp windows

	// Telemetry for tests and the harness.
	Epochs    int
	MDs       int
	GentleMDs int
	QAFires   int
	Ramps     int
}

// NewUnoCC builds a controller for one flow.
func NewUnoCC(cfg CCConfig) *UnoCC {
	cfg = cfg.withDefaults()
	return &UnoCC{cfg: &cfg, mdScale: 1}
}

// Pool builds one shard's Uno policy objects and takes them back when
// their flows finish. It interns controller configurations: a simulation's
// flows differ in a handful of base RTTs at most, so the thousands of
// controllers built through one pool share a few CCConfig copies instead of
// carrying one each. And a finished flow's controller and balancer, handed
// back through Recycle, serve a later flow, so a run builds only as many as
// it has flows live at once. The zero value is ready to use; a nil Pool
// builds private objects. A pool belongs to one shard of one simulation (it
// is not safe for concurrent use).
type Pool struct {
	configs map[CCConfig]*CCConfig
	ccs     []*UnoCC
	lbs     []*UnoLB
}

// NewUnoCC is the package-level NewUnoCC with the configuration interned
// and the controller recycled.
func (p *Pool) NewUnoCC(cfg CCConfig) *UnoCC {
	if p == nil {
		return NewUnoCC(cfg)
	}
	cfg = cfg.withDefaults()
	shared, ok := p.configs[cfg]
	if !ok {
		if p.configs == nil {
			p.configs = make(map[CCConfig]*CCConfig)
		}
		shared = new(CCConfig) // not &cfg: that would heap-allocate cfg on every call
		*shared = cfg
		p.configs[cfg] = shared
	}
	u := pop(&p.ccs)
	*u = UnoCC{cfg: shared, mdScale: 1}
	return u
}

// NewUnoLB returns a reset UnoLB, recycled when the pool holds one.
func (p *Pool) NewUnoLB() *UnoLB {
	if p == nil {
		return new(UnoLB)
	}
	u := pop(&p.lbs)
	*u = UnoLB{}
	return u
}

// pop takes the last object off a free list, or allocates one.
func pop[T any](list *[]*T) *T {
	k := len(*list) - 1
	if k < 0 {
		return new(T)
	}
	x := (*list)[k]
	(*list)[k] = nil
	*list = (*list)[:k]
	return x
}

// Recycle takes back a finished flow's policies for later flows. Only the
// objects themselves are recycled, not a wrapper around them: whoever
// wrapped them may still read them.
func (p *Pool) Recycle(cc transport.CongestionControl, lb transport.PathSelector) {
	if u, ok := cc.(*UnoCC); ok {
		p.ccs = append(p.ccs, u)
	}
	if u, ok := lb.(*UnoLB); ok {
		p.lbs = append(p.lbs, u)
	}
}

// Config returns the controller's (defaulted) configuration.
func (u *UnoCC) Config() CCConfig { return *u.cfg }

// Name implements transport.CongestionControl.
func (u *UnoCC) Name() string { return "unocc" }

// Init implements transport.CongestionControl.
func (u *UnoCC) Init(c *transport.Conn) {
	// α stays strictly BDP-proportional (0.001×BDP): flooring
	// it (e.g. at one MSS per RTT) looks harmless but inflates short-RTT
	// flows' growth per unit time by an order of magnitude and skews the
	// AIMD fair point. Post-collapse recovery is the ramp's job, not α's.
	u.alpha = alphaFrac * u.cfg.BDP
	c.SetCwnd(u.cfg.BDP)
	u.ssthresh = u.cfg.BDP
	u.epochStart = c.Now()
	u.minRelDelay = math.MaxInt64
	u.updatePacing(c)
}

// updatePacing programs the NIC pacer to pacingGain × cwnd/SRTT.
func (u *UnoCC) updatePacing(c *transport.Conn) {
	c.SetPacingRate(pacingGain * 8 * c.Cwnd() / u.rttEstimate(c).Seconds())
}

// rttEstimate returns the best current RTT estimate.
func (u *UnoCC) rttEstimate(c *transport.Conn) eventq.Time {
	if srtt := c.SRTT(); srtt > 0 {
		return srtt
	}
	return u.cfg.BaseRTT
}

// armQA schedules the next once-per-RTT Quick Adapt evaluation (§4.1.2).
// One Timer, a field of the controller, serves the flow's whole lifetime;
// binding it and every rearm are allocation-free. The Conn releases it at
// completion, so no tick fires for a finished flow and a recycled
// controller finds it unbound.
func (u *UnoCC) armQA(c *transport.Conn) {
	if c.Completed() {
		return
	}
	if u.conn == nil {
		u.conn = c
		c.BindTimerArg(&u.qaTimer, unoccOnQATick, u)
	}
	u.qaTimer.ResetAfter(u.rttEstimate(c))
}

// unoccOnQATick is the Quick Adapt timer's callback, pre-bound so the
// timer needs no closure.
func unoccOnQATick(a any) {
	u := a.(*UnoCC)
	u.onQA(u.conn)
	if !u.cfg.DisableQA {
		u.armQA(u.conn)
	}
}

// onQA is procedure ONQA of Algorithm 1.
func (u *UnoCC) onQA(c *transport.Conn) {
	bytes := u.qaBytes
	u.qaBytes = 0
	if c.Completed() {
		return
	}
	if u.qaSkip {
		u.qaSkip = false
		return
	}
	// Only meaningful when the window was actually exercised: a sender
	// with nothing outstanding acks nothing without being congested, and
	// a window of a few packets legitimately sees empty QA periods from
	// ACK-alignment jitter alone.
	if c.InFlight() == 0 || c.Cwnd() < 4*float64(c.MTUWire()) {
		return
	}
	if float64(bytes) < qaBeta*c.Cwnd() {
		c.SetCwnd(float64(bytes))
		// The QA collapse target is the demonstrated capacity; ramping
		// back above it would recreate the congestion QA just resolved.
		u.ssthresh = c.Cwnd()
		u.QAFires++
		u.qaSkip = true
		u.mdMutedTo = c.Now() + u.rttEstimate(c)
	}
}

// OnAck implements transport.CongestionControl: lines 1-5 (AI) plus epoch
// bookkeeping for ONEPOCH (lines 7-16).
func (u *UnoCC) OnAck(c *transport.Conn, a transport.AckInfo) {
	if !u.qaArmed && !u.cfg.DisableQA {
		u.qaArmed = true
		u.armQA(c)
	}
	u.qaBytes += int64(a.Bytes)
	u.epochAcks++
	if a.Marked {
		u.epochMarked++
		u.rampMarked = true
	} else if a.Bytes > 0 {
		// Additive increase: cwnd += α × bytes_acked / cwnd.
		cwnd := c.Cwnd()
		next := cwnd + u.alpha*float64(a.Bytes)/cwnd
		if limit := maxCwndBDPs * u.cfg.BDP; next > limit {
			next = limit
		}
		c.SetCwnd(next)
	}
	if a.RTT > 0 {
		if rel := a.RTT - u.cfg.BaseRTT; rel < u.minRelDelay {
			u.minRelDelay = rel
		}
	}
	// Recovery ramp and headroom probing. A ramp window spans at least one
	// RTT *and* at least 32 ACKs: without the ACK minimum, a small-window
	// flow's RTT often contains zero marks by sampling luck alone and it
	// would probe far more often than a large-window flow seeing the same
	// marking probability. Below ssthresh one clean window grows the
	// window ×1.5 (recovery toward the last sustainable point); at or
	// above ssthresh two consecutive clean windows earn an additive,
	// BDP-scaled boost (probing genuinely spare capacity).
	u.rampAcks++
	if rtt := u.rttEstimate(c); a.Now-u.rampWindowStart >= rtt && u.rampAcks >= 32 {
		if u.rampMarked {
			u.cleanStreak = 0
		} else if u.rampWindowStart > 0 {
			u.cleanStreak++
		}
		if !u.rampMarked && u.rampWindowStart > 0 && c.InFlight() > 0 {
			switch {
			case c.Cwnd() < u.ssthresh:
				next := c.Cwnd() * 1.5
				if next > u.ssthresh {
					next = u.ssthresh
				}
				c.SetCwnd(next)
				u.Ramps++
			case u.cleanStreak >= 2:
				// Headroom probing above ssthresh: an *additive* boost of
				// 16α per clean RTT, scaled by how many RTTs the window
				// actually spanned (the 32-ACK minimum stretches small-
				// window flows' windows across many RTTs; without the
				// scaling their probe rate would shrink by the same
				// factor). Additive and BDP-scaled like α, the boost
				// keeps window growth per unit time equal across RTT
				// classes — a multiplicative probe would let short-RTT
				// flows seize freed capacity orders of magnitude faster
				// and destroy the AIMD fairness design.
				spans := float64(a.Now-u.rampWindowStart) / float64(rtt)
				next := c.Cwnd() + 16*u.alpha*spans
				if limit := maxCwndBDPs * u.cfg.BDP; next > limit {
					next = limit
				}
				c.SetCwnd(next)
				if next > u.ssthresh {
					u.ssthresh = next
				}
				u.Ramps++
			}
		}
		u.rampWindowStart = a.Now
		u.rampMarked = false
		u.rampAcks = 0
	}

	// Epoch termination: ACK for a packet sent at or after epochStart.
	if a.SentAt >= u.epochStart {
		u.onEpoch(c, a.Now)
	}
	u.updatePacing(c)
}

// onEpoch is procedure ONEPOCH of Algorithm 1.
func (u *UnoCC) onEpoch(c *transport.Conn, now eventq.Time) {
	u.Epochs++
	frac := 0.0
	if u.epochAcks > 0 {
		frac = float64(u.epochMarked) / float64(u.epochAcks)
	}
	u.ewmaECN = ewmaGain*frac + (1-ewmaGain)*u.ewmaECN

	congested := u.epochMarked > 0
	if congested && now >= u.mdMutedTo {
		// Distinguish phantom-only congestion ("delay == 0") from
		// physical queue build-up.
		phantomOnly := !u.cfg.DisablePhantomAware &&
			u.minRelDelay != math.MaxInt64 &&
			u.minRelDelay <= phantomDelayThresh
		if phantomOnly {
			u.mdScale *= 0.3 // Gentle Reduction
			if u.mdScale < gentleFloor {
				u.mdScale = gentleFloor
			}
			u.GentleMDs++
		} else {
			u.mdScale = 1
		}
		k := u.cfg.IntraBDP / kDivisor
		mdECN := u.ewmaECN * 4 * k / (k + u.cfg.BDP)
		cut := mdECN * u.mdScale
		if cut > 0.5 {
			cut = 0.5 // safety clamp, mirrors DCTCP's maximum halving
		}
		rtt := u.rttEstimate(c)
		if now-u.mdWindowStart >= rtt {
			u.mdWindowStart = now
			u.mdWindowCwnd = c.Cwnd()
			// One ssthresh update per congestion window (Reno-style):
			// the level that provoked the marks, halved.
			u.ssthresh = u.mdWindowCwnd / 2
		}
		next := c.Cwnd() * (1 - cut)
		if floor := u.mdWindowCwnd / 2; u.mdWindowCwnd > 0 && next < floor {
			next = floor
		}
		c.SetCwnd(next)
		u.MDs++
	}

	// Re-arm the epoch.
	u.epochAcks, u.epochMarked = 0, 0
	u.minRelDelay = math.MaxInt64
	u.epochStart += u.cfg.EpochPeriod
	if u.epochStart < now-u.rttEstimate(c) {
		// Catch up after idle or long-RTT gaps so stale epochs do not
		// fire once per ACK.
		u.epochStart = now - u.rttEstimate(c)
	}
}

// OnNack implements transport.CongestionControl: block NACKs indicate path
// trouble, not necessarily congestion; rate control reacts through the
// normal ECN/QA machinery, so this is a no-op.
func (u *UnoCC) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.CongestionControl: an RTO signals heavy
// loss; halve the window (the QA machinery handles true collapse, and the
// recovery ramp rebuilds quickly).
func (u *UnoCC) OnTimeout(c *transport.Conn) {
	c.SetCwnd(c.Cwnd() / 2)
	u.ssthresh = c.Cwnd()
}
