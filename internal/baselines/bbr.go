package baselines

import (
	"uno/internal/eventq"
	"uno/internal/transport"
)

// BBR is a simplified BBRv1 [Cardwell et al., CACM'17], the WAN half of the
// MPRDMA+BBR baseline: rate-based control around windowed estimates of
// bottleneck bandwidth (max delivery rate over ~10 rounds) and propagation
// delay (min RTT), with the classic gain-cycled ProbeBW phase and an
// exponential Startup. It is delay/bandwidth-driven and ignores ECN — which
// is precisely why pairing it with an ECN-based intra-DC protocol yields
// the unfairness of Fig 3 C.
type BBR struct {
	baseRTT eventq.Time // the flow's unloaded RTT; seeds RTprop

	phase      int
	probeIdx   int
	phaseStart eventq.Time

	// Delivery-rate estimation: bytes acked per round (one SRTT).
	roundStart  eventq.Time
	roundBytes  int64
	bwSamples   [bbrBtlBwRounds]float64 // ring of per-round rates (B/s)
	bwHead      int
	bwCount     int
	btlBw       float64 // bytes/s
	initBw      float64 // pre-sample model (bytes/s), restored on timeout
	rtProp      eventq.Time
	fullBwValue float64
	fullBwCount int

	// Rounds is telemetry for tests.
	Rounds int
}

// bbr state machine phases.
const (
	bbrStartup = iota
	bbrDrain
	bbrProbeBW
)

const (
	bbrStartupGain  = 2.885 // 2/ln2
	bbrBtlBwRounds  = 10    // max-filter window, in rounds
	bbrFullBwRounds = 3     // rounds without 25% growth → pipe full
	bbrCwndGain     = 2.0
	bbrProbePhases  = 8
	bbrInitPkts     = 10        // pre-sample pacing: this many packets per base RTT
	bbrMaxCwnd      = 256 << 20 // window cap in bytes
)

var bbrProbeGains = [bbrProbePhases]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR builds a controller for one flow.
func NewBBR() *BBR { return &BBR{} }

// Name implements transport.CongestionControl.
func (b *BBR) Name() string { return "bbr" }

// Init implements transport.CongestionControl.
func (b *BBR) Init(c *transport.Conn) {
	b.baseRTT = c.Params().BaseRTT
	b.rtProp = b.baseRTT
	rate := bbrInitPkts * float64(c.MTUWire()) * 8 / b.baseRTT.Seconds()
	b.initBw = rate / 8
	b.btlBw = b.initBw
	b.phase = bbrStartup
	b.roundStart = c.Now()
	b.phaseStart = c.Now()
	b.apply(c)
}

// pacingGain returns the current phase's pacing gain.
func (b *BBR) pacingGain() float64 {
	switch b.phase {
	case bbrStartup:
		return bbrStartupGain
	case bbrDrain:
		return 1 / bbrStartupGain
	default:
		return bbrProbeGains[b.probeIdx]
	}
}

// apply programs the Conn's pacing rate and window from the current model.
func (b *BBR) apply(c *transport.Conn) {
	rateBps := 8 * b.btlBw * b.pacingGain()
	c.SetPacingRate(rateBps)
	bdp := b.btlBw * b.rtProp.Seconds()
	cwnd := bbrCwndGain * bdp
	if b.phase == bbrStartup {
		cwnd = bbrStartupGain * 2 * bdp
	}
	if cwnd > bbrMaxCwnd {
		cwnd = bbrMaxCwnd
	}
	c.SetCwnd(cwnd)
}

// OnAck implements transport.CongestionControl.
func (b *BBR) OnAck(c *transport.Conn, a transport.AckInfo) {
	b.roundBytes += int64(a.Bytes)
	if a.RTT > 0 && a.RTT < b.rtProp {
		b.rtProp = a.RTT
	}
	// Round boundary: one smoothed RTT of accumulation.
	rtt := c.SRTT()
	if rtt <= 0 {
		rtt = b.baseRTT
	}
	if a.Now-b.roundStart < rtt {
		return
	}
	b.Rounds++
	elapsed := (a.Now - b.roundStart).Seconds()
	b.roundStart = a.Now
	if elapsed > 0 {
		sample := float64(b.roundBytes) / elapsed
		b.pushBwSample(sample)
	}
	b.roundBytes = 0
	b.advancePhase(c, a.Now)
	b.apply(c)
}

// pushBwSample inserts a delivery-rate sample and refreshes the max filter.
func (b *BBR) pushBwSample(s float64) {
	b.bwSamples[b.bwHead] = s
	b.bwHead = (b.bwHead + 1) % bbrBtlBwRounds
	if b.bwCount < bbrBtlBwRounds {
		b.bwCount++
	}
	max := 0.0
	for i := 0; i < b.bwCount; i++ {
		if b.bwSamples[i] > max {
			max = b.bwSamples[i]
		}
	}
	if max > 0 {
		b.btlBw = max
	}
}

// advancePhase runs the Startup → Drain → ProbeBW state machine.
func (b *BBR) advancePhase(c *transport.Conn, now eventq.Time) {
	switch b.phase {
	case bbrStartup:
		// Pipe full when bandwidth stopped growing 25% for 3 rounds.
		if b.btlBw > b.fullBwValue*1.25 {
			b.fullBwValue = b.btlBw
			b.fullBwCount = 0
			return
		}
		b.fullBwCount++
		if b.fullBwCount >= bbrFullBwRounds {
			b.phase = bbrDrain
			b.phaseStart = now
		}
	case bbrDrain:
		// Drain for roughly one RTprop, then cruise.
		if now-b.phaseStart >= b.rtProp {
			b.phase = bbrProbeBW
			b.probeIdx = 2 // start in a cruise phase
			b.phaseStart = now
		}
	case bbrProbeBW:
		if now-b.phaseStart >= b.rtProp {
			b.probeIdx = (b.probeIdx + 1) % bbrProbePhases
			b.phaseStart = now
		}
	}
}

// OnNack implements transport.CongestionControl.
func (b *BBR) OnNack(c *transport.Conn) {}

// OnTimeout implements transport.CongestionControl: back off to a minimal
// model and restart discovery. Everything the model learned describes the
// pre-loss pipe, so the restart clears all of it: the round accounting
// (otherwise the first post-timeout sample folds pre-timeout acked bytes
// over an inflated elapsed window) and the 10-round max filter (otherwise
// stale high btlBw samples keep the pacing rate pinned at pre-loss
// bandwidth throughout the restart).
func (b *BBR) OnTimeout(c *transport.Conn) {
	b.phase = bbrStartup
	b.fullBwValue = 0
	b.fullBwCount = 0
	b.roundStart = c.Now()
	b.roundBytes = 0
	b.bwHead = 0
	b.bwCount = 0
	b.btlBw = b.initBw
	b.apply(c)
}
