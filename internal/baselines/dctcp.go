package baselines

import (
	"uno/internal/eventq"
	"uno/internal/transport"
)

// DCTCP is the classic datacenter congestion controller [Alizadeh et al.,
// SIGCOMM'10]: per-RTT window reduction proportional to a smoothed
// estimate of the ECN-marked fraction (cwnd ×= 1 − α/2 with
// α ← (1−g)·α + g·F), slow start below ssthresh, and one-MSS-per-RTT
// additive increase otherwise. It is not one of the paper's headline
// baselines but is the reference point the paper's buffer-sizing argument
// (§2.3, "DCTCP requires the buffer space to be at least 17% of BDP") is
// made against, and several comparisons in the literature pair BBR with
// DCTCP instead of MPRDMA.
type DCTCP struct {
	baseRTT    eventq.Time // seeds the round length before RTT samples exist
	alpha      float64     // smoothed marked fraction
	ssthresh   float64
	roundStart eventq.Time
	acks       int
	marked     int

	// Rounds and Cuts are telemetry for tests.
	Rounds int
	Cuts   int
}

// dctcpG is the EWMA gain for the marked fraction (the DCTCP paper's
// 1/16), and dctcpInitPkts the initial window in packets.
const (
	dctcpG        = 1.0 / 16
	dctcpInitPkts = 10
)

// NewDCTCP builds a controller for one flow.
func NewDCTCP() *DCTCP { return &DCTCP{} }

// Name implements transport.CongestionControl.
func (d *DCTCP) Name() string { return "dctcp" }

// Init implements transport.CongestionControl.
func (d *DCTCP) Init(c *transport.Conn) {
	d.baseRTT = c.Params().BaseRTT
	c.SetCwnd(dctcpInitPkts * float64(c.MTUWire()))
	d.ssthresh = maxCwnd
	d.roundStart = c.Now()
}

// OnAck implements transport.CongestionControl.
func (d *DCTCP) OnAck(c *transport.Conn, a transport.AckInfo) {
	d.acks++
	if a.Marked {
		d.marked++
	}
	if a.Bytes > 0 {
		mss := float64(c.MTUWire())
		cwnd := c.Cwnd()
		var next float64
		if cwnd < d.ssthresh {
			next = cwnd + float64(a.Bytes) // slow start
		} else {
			next = cwnd + mss*float64(a.Bytes)/cwnd // 1 MSS per RTT
		}
		if next > maxCwnd {
			next = maxCwnd
		}
		c.SetCwnd(next)
	}
	// Round boundary at the flow's RTT granularity.
	if a.SentAt >= d.roundStart {
		d.onRound(c, a.Now)
	}
}

func (d *DCTCP) onRound(c *transport.Conn, now eventq.Time) {
	d.Rounds++
	f := 0.0
	if d.acks > 0 {
		f = float64(d.marked) / float64(d.acks)
	}
	d.alpha = (1-dctcpG)*d.alpha + dctcpG*f
	if d.marked > 0 {
		c.SetCwnd(c.Cwnd() * (1 - d.alpha/2))
		d.ssthresh = c.Cwnd()
		d.Cuts++
	}
	d.acks, d.marked = 0, 0
	rtt := d.baseRTT
	if srtt := c.SRTT(); srtt > 0 {
		rtt = srtt
	}
	d.roundStart += rtt
	if d.roundStart < now-rtt {
		d.roundStart = now - rtt
	}
}

// OnNack implements transport.CongestionControl.
func (d *DCTCP) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.CongestionControl.
func (d *DCTCP) OnTimeout(c *transport.Conn) {
	d.ssthresh = c.Cwnd() / 2
	c.SetCwnd(float64(c.MTUWire()))
}

// Alpha exposes the smoothed marked fraction (for tests).
func (d *DCTCP) Alpha() float64 { return d.alpha }
