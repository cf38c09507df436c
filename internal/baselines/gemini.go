// Package baselines implements the state-of-the-art protocols the paper
// compares Uno against (§5.1): Gemini [Zeng et al., ICNP'19], MPRDMA
// [Lu et al., NSDI'18], and BBR [Cardwell et al., CACM'17].
package baselines

import (
	"uno/internal/eventq"
	"uno/internal/transport"
)

// Gemini is a window-based congestion controller for mixed intra/inter-DC
// traffic. It detects intra-DC congestion via the ECN-marked fraction and
// inter-DC (WAN) congestion via queuing delay, and applies BDP-scaled AIMD
// factors that provably converge to bandwidth fairness — but, unlike
// UnoCC, it reacts once per *flow* RTT, so inter-DC flows adapt ~two
// orders of magnitude more slowly than intra-DC competitors (the slow
// convergence of Fig 3 B).
type GeminiConfig struct {
	// BDP of the flow in wire bytes.
	BDP float64
	// IntraBDP in wire bytes (for the shared MD constant K = IntraBDP/7).
	IntraBDP float64
	// BaseRTT is the flow's unloaded RTT; rounds last one RTT.
	BaseRTT eventq.Time
	// InterDC selects the WAN signal (delay) in addition to ECN.
	InterDC bool
}

// Gemini's AIMD factors match UnoCC's (§4.1.1 "We select UnoCC's AI and MD
// factors similar to Gemini"): α = 0.001·BDP, K = IntraBDP/7, an EWMA gain
// of 1/8, and a window between one and two BDPs. A relative delay above
// BaseRTT/10 flags WAN congestion.
const (
	geminiAlphaFrac    = 0.001
	geminiKDivisor     = 7
	geminiEWMAGain     = 0.125
	geminiMaxCwndBDPs  = 2
	geminiDelayDivisor = 10
)

// Gemini implements transport.CongestionControl.
type Gemini struct {
	cfg   GeminiConfig
	alpha float64

	roundStart eventq.Time // epoch over the flow's own RTT
	acks       int
	marked     int
	delayed    int
	ewmaFrac   float64

	// Rounds and MDs are telemetry for tests.
	Rounds int
	MDs    int
}

// NewGemini builds a controller for one flow.
func NewGemini(cfg GeminiConfig) *Gemini {
	return &Gemini{cfg: cfg}
}

// Name implements transport.CongestionControl.
func (g *Gemini) Name() string { return "gemini" }

// Init implements transport.CongestionControl.
func (g *Gemini) Init(c *transport.Conn) {
	g.alpha = geminiAlphaFrac * g.cfg.BDP
	c.SetCwnd(g.cfg.BDP)
	g.roundStart = c.Now()
}

// OnAck implements transport.CongestionControl.
func (g *Gemini) OnAck(c *transport.Conn, a transport.AckInfo) {
	g.acks++
	congSignal := a.Marked
	if a.RTT > 0 && g.cfg.InterDC && a.RTT-g.cfg.BaseRTT > g.cfg.BaseRTT/geminiDelayDivisor {
		g.delayed++
		congSignal = true
	}
	if a.Marked {
		g.marked++
	}
	if !congSignal && a.Bytes > 0 {
		cwnd := c.Cwnd()
		next := cwnd + g.alpha*float64(a.Bytes)/cwnd
		if limit := geminiMaxCwndBDPs * g.cfg.BDP; next > limit {
			next = limit
		}
		c.SetCwnd(next)
	}
	// Round termination at the flow's own RTT granularity: the key
	// difference from UnoCC's unified epochs.
	if a.SentAt >= g.roundStart {
		g.onRound(c, a.Now)
	}
}

func (g *Gemini) onRound(c *transport.Conn, now eventq.Time) {
	g.Rounds++
	frac := 0.0
	if g.acks > 0 {
		cong := g.marked
		if g.cfg.InterDC && g.delayed > cong {
			cong = g.delayed
		}
		frac = float64(cong) / float64(g.acks)
	}
	g.ewmaFrac = geminiEWMAGain*frac + (1-geminiEWMAGain)*g.ewmaFrac

	if frac > 0 {
		k := g.cfg.IntraBDP / geminiKDivisor
		md := g.ewmaFrac * 4 * k / (k + g.cfg.BDP)
		if md > 0.5 {
			md = 0.5
		}
		c.SetCwnd(c.Cwnd() * (1 - md))
		g.MDs++
	}
	g.acks, g.marked, g.delayed = 0, 0, 0
	rtt := g.cfg.BaseRTT
	if srtt := c.SRTT(); srtt > 0 {
		rtt = srtt
	}
	g.roundStart += rtt
	if g.roundStart < now-rtt {
		g.roundStart = now - rtt
	}
}

// OnNack implements transport.CongestionControl.
func (g *Gemini) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.CongestionControl.
func (g *Gemini) OnTimeout(c *transport.Conn) {
	c.SetCwnd(float64(c.MTUWire()))
}
