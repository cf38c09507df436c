package baselines

import (
	"uno/internal/eventq"
	"uno/internal/transport"
)

// Swift is a simplified Swift [Kumar et al., SIGCOMM'20], the delay-based
// intra-DC controller the paper cites among the state of the art (§7):
// the window grows additively while the measured RTT is under a target
// delay and shrinks multiplicatively — proportionally to how far the delay
// overshoots — at most once per RTT. The paper's §2.2 argues delay is hard
// to use across heterogeneous intra/inter-DC queues; Swift here serves as
// that reference point and as another intra-DC pairing for custom stacks.
type Swift struct {
	baseRTT eventq.Time
	lastCut eventq.Time

	// Cuts is telemetry for tests.
	Cuts int
}

// Swift's constants. The delay target is half the flow's base RTT (Swift's
// fabric-delay-scaled flavour) and the additive increase one MSS per RTT.
// Decreases bottom out at one packet, real Swift's floor, through the
// transport's one-packet minimum window: without a floor a flow starved by
// a more aggressive peer spirals toward cwnd≈0 and stalls.
const (
	swiftBeta     = 0.8 // scales the multiplicative decrease
	swiftMaxMDF   = 0.5 // caps a single decrease
	swiftInitPkts = 10  // initial window in packets
)

// NewSwift builds a controller for one flow.
func NewSwift() *Swift { return &Swift{} }

// Name implements transport.CongestionControl.
func (s *Swift) Name() string { return "swift" }

// Init implements transport.CongestionControl.
func (s *Swift) Init(c *transport.Conn) {
	s.baseRTT = c.Params().BaseRTT
	c.SetCwnd(swiftInitPkts * float64(c.MTUWire()))
}

// OnAck implements transport.CongestionControl.
func (s *Swift) OnAck(c *transport.Conn, a transport.AckInfo) {
	if a.RTT <= 0 {
		return
	}
	delay, target := a.RTT-s.baseRTT, s.baseRTT/2
	cwnd := c.Cwnd()
	if delay <= target {
		if a.Bytes > 0 {
			next := cwnd + float64(c.MTUWire())*float64(a.Bytes)/cwnd
			if next > maxCwnd {
				next = maxCwnd
			}
			c.SetCwnd(next)
		}
		return
	}
	// Over target: multiplicative decrease, at most once per RTT.
	rtt := c.SRTT()
	if rtt <= 0 {
		rtt = s.baseRTT
	}
	if a.Now-s.lastCut < rtt {
		return
	}
	s.lastCut = a.Now
	mdf := swiftBeta * float64(delay-target) / float64(delay)
	if mdf > swiftMaxMDF {
		mdf = swiftMaxMDF
	}
	c.SetCwnd(cwnd * (1 - mdf))
	s.Cuts++
}

// OnNack implements transport.CongestionControl.
func (s *Swift) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.CongestionControl. The halving counts as
// this RTT's decrease: without recording lastCut, the first over-target ACK
// after the timeout would cut the window a second time within one RTT
// (timeout halving + delay-driven MD back to back).
func (s *Swift) OnTimeout(c *transport.Conn) {
	s.lastCut = c.Now()
	c.SetCwnd(c.Cwnd() / 2)
}
