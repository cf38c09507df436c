// Package lb implements the load-balancing baselines the paper evaluates
// UnoLB against (§5.2.1, §5.2.3): per-flow ECMP (transport.FixedEntropy),
// Random Packet Spraying, and PLB. UnoLB itself is part of the paper's
// contribution and lives in internal/core.
package lb

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/transport"
)

// RPS is Random Packet Spraying [Dixit et al., INFOCOM'13]: every packet
// draws a fresh entropy, spreading a flow uniformly over all equal-cost
// paths at the price of heavy reordering.
type RPS struct{}

// Name implements transport.PathSelector.
func (r *RPS) Name() string { return "rps" }

// Init implements transport.PathSelector.
func (r *RPS) Init(c *transport.Conn) {}

// Assign implements transport.PathSelector.
func (r *RPS) Assign(c *transport.Conn, p *netsim.Packet) {
	p.Entropy = c.Rand().Uint32()
	p.Subflow = -1
}

// OnAck implements transport.PathSelector.
func (r *RPS) OnAck(*transport.Conn, transport.AckInfo, int8, uint32) {}

// OnNack implements transport.PathSelector.
func (r *RPS) OnNack(*transport.Conn) {}

// OnTimeout implements transport.PathSelector.
func (r *RPS) OnTimeout(*transport.Conn) {}

// PLB is Protective Load Balancing [Qureshi et al., SIGCOMM'22]: a flow
// keeps a single path (entropy) but re-hashes to a fresh random one after
// plbCongestedRounds consecutive congested rounds (rounds ≈ one RTT; a
// round is congested when at least plbMarkFraction of its ACKs carry ECN
// marks), and immediately on RTO.
type PLB struct {
	entropy   uint32
	roundEnd  eventq.Time
	acks      int
	marked    int
	badRounds int
	// Repaths counts path changes, exposed for tests and reports.
	Repaths int
}

// PLB's defaults: repath after 3 congested rounds, a round being congested
// when half its ACKs are marked.
const (
	plbCongestedRounds = 3
	plbMarkFraction    = 0.5
)

// Name implements transport.PathSelector.
func (p *PLB) Name() string { return "plb" }

// Init implements transport.PathSelector.
func (p *PLB) Init(c *transport.Conn) {
	p.entropy = c.Rand().Uint32() | 1
	p.roundEnd = c.Now() + p.roundLen(c)
}

func (p *PLB) roundLen(c *transport.Conn) eventq.Time {
	if srtt := c.SRTT(); srtt > 0 {
		return srtt
	}
	return c.Params().BaseRTT
}

// Assign implements transport.PathSelector.
func (p *PLB) Assign(c *transport.Conn, pkt *netsim.Packet) {
	pkt.Entropy = p.entropy
	pkt.Subflow = -1
}

// OnAck implements transport.PathSelector.
func (p *PLB) OnAck(c *transport.Conn, a transport.AckInfo, _ int8, _ uint32) {
	p.acks++
	if a.Marked {
		p.marked++
	}
	if a.Now < p.roundEnd {
		return
	}
	// Round boundary: classify and maybe repath.
	if p.acks > 0 && float64(p.marked) >= plbMarkFraction*float64(p.acks) {
		p.badRounds++
		if p.badRounds >= plbCongestedRounds {
			p.repath(c)
		}
	} else {
		p.badRounds = 0
	}
	p.acks, p.marked = 0, 0
	p.roundEnd = a.Now + p.roundLen(c)
}

func (p *PLB) repath(c *transport.Conn) {
	p.entropy = c.Rand().Uint32() | 1
	p.badRounds = 0
	p.Repaths++
}

// OnNack implements transport.PathSelector.
func (p *PLB) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.PathSelector: PLB repaths immediately on
// retransmission timeout.
func (p *PLB) OnTimeout(c *transport.Conn) {
	p.repath(c)
}
