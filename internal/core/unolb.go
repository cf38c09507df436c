package core

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/transport"
)

// UnoLB is the paper's subflow-level load balancer (§4.2, Algorithm 2):
// a flow opens N subflows, each pinned to its own path via a private
// entropy value, and packets round-robin across subflows — so the packets
// of every erasure-coding block spread over N distinct paths. When a block
// NACK or a retransmission timeout signals a bad path, at most once per
// base RTT the most suspicious subflow (the one longest without an ACK) is
// re-routed: it adopts the path of a randomly chosen recently-ACKed subflow
// (falling back to a fresh random path), which avoids hopping onto another
// congested or failed path. N is the subflows constant, the EC block's
// data-packet count, so a block covers all paths.
type UnoLB struct {
	entropies   [subflows]uint32
	lastAck     [subflows]eventq.Time
	next        int
	lastReroute eventq.Time
	hasRerouted bool

	// Reroutes counts path changes, exposed for tests and reports.
	Reroutes int
}

// freshRTTs is how many base RTTs ago a subflow may last have been ACKed
// and still count as healthy.
const freshRTTs = 2

// Name implements transport.PathSelector.
func (u *UnoLB) Name() string { return "unolb" }

// Init implements transport.PathSelector.
func (u *UnoLB) Init(c *transport.Conn) {
	u.lastAck = [subflows]eventq.Time{}
	for i := range u.entropies {
		u.entropies[i] = c.Rand().Uint32() | 1
	}
}

// Assign implements transport.PathSelector: ONSEND of Algorithm 2.
func (u *UnoLB) Assign(c *transport.Conn, p *netsim.Packet) {
	p.Entropy = u.entropies[u.next]
	p.Subflow = int8(u.next)
	u.next = (u.next + 1) % subflows
}

// OnAck implements transport.PathSelector: record subflow liveness.
func (u *UnoLB) OnAck(c *transport.Conn, a transport.AckInfo, subflow int8, _ uint32) {
	if int(subflow) >= 0 && int(subflow) < subflows {
		u.lastAck[subflow] = a.Now
	}
}

// OnNack implements transport.PathSelector: ONNACKORTIMEOUT of Algorithm 2.
func (u *UnoLB) OnNack(c *transport.Conn) { u.maybeReroute(c) }

// OnTimeout implements transport.PathSelector: ONNACKORTIMEOUT of
// Algorithm 2.
func (u *UnoLB) OnTimeout(c *transport.Conn) { u.maybeReroute(c) }

// maybeReroute re-routes the stalest subflow, rate-limited to once per
// base RTT.
func (u *UnoLB) maybeReroute(c *transport.Conn) {
	now, baseRTT := c.Now(), c.Params().BaseRTT
	if u.hasRerouted && now-u.lastReroute <= baseRTT {
		return
	}
	u.lastReroute = now
	u.hasRerouted = true

	// The suspect: the subflow that has gone longest without an ACK.
	suspect := 0
	for i := 1; i < subflows; i++ {
		if u.lastAck[i] < u.lastAck[suspect] {
			suspect = i
		}
	}

	// Candidate healthy subflows: ACKed within the freshness window.
	var healthy [subflows]int
	n := 0
	for i := 0; i < subflows; i++ {
		if i != suspect && u.lastAck[i] > 0 && now-u.lastAck[i] <= freshRTTs*baseRTT {
			healthy[n] = i
			n++
		}
	}
	if n > 0 {
		donor := healthy[c.Rand().Intn(n)]
		u.entropies[suspect] = u.entropies[donor]
	} else {
		u.entropies[suspect] = c.Rand().Uint32() | 1
	}
	// Reset the suspect's clock so the same subflow is not immediately
	// re-picked before its new path has had a chance to deliver.
	u.lastAck[suspect] = now
	u.Reroutes++
}

// Entropies returns a copy of the subflow entropies (for tests).
func (u *UnoLB) Entropies() []uint32 {
	return append([]uint32(nil), u.entropies[:]...)
}
