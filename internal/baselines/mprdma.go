package baselines

import "uno/internal/transport"

// MPRDMA is the intra-DC half of the paper's MPRDMA+BBR baseline: a
// per-ACK ECN-driven AIMD in the style of Multi-Path RDMA's congestion
// control [Lu et al., NSDI'18] — on every unmarked ACK the window grows by
// one MSS per window's worth, on every marked ACK it shrinks by half an
// MSS. Reacting per packet makes it very fast inside a datacenter and is
// exactly what starves slow-loop WAN protocols when the two compete
// (Fig 3 C).
type MPRDMA struct{}

// mprdmaInitPkts is MPRDMA's initial window in packets.
const mprdmaInitPkts = 16

// maxCwnd caps window growth in the MPRDMA, DCTCP and Swift baselines.
const maxCwnd = 64 << 20

// NewMPRDMA builds a controller for one flow.
func NewMPRDMA() *MPRDMA { return &MPRDMA{} }

// Name implements transport.CongestionControl.
func (m *MPRDMA) Name() string { return "mprdma" }

// Init implements transport.CongestionControl.
func (m *MPRDMA) Init(c *transport.Conn) {
	c.SetCwnd(mprdmaInitPkts * float64(c.MTUWire()))
}

// OnAck implements transport.CongestionControl.
func (m *MPRDMA) OnAck(c *transport.Conn, a transport.AckInfo) {
	mss := float64(c.MTUWire())
	cwnd := c.Cwnd()
	if a.Marked {
		c.SetCwnd(cwnd - mss/2)
		return
	}
	if a.Bytes == 0 {
		return
	}
	next := cwnd + mss*mss/cwnd
	if next > maxCwnd {
		next = maxCwnd
	}
	c.SetCwnd(next)
}

// OnNack implements transport.CongestionControl.
func (m *MPRDMA) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.CongestionControl.
func (m *MPRDMA) OnTimeout(c *transport.Conn) {
	c.SetCwnd(float64(c.MTUWire()))
}
