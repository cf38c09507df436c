package transport

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// pktState is the sender's bit flags for one schedule entry; the entry's
// last transmission time is Conn.sentAt[seq]. Nine bytes per entry in all,
// and a WAN flow's BDP exceeds its size, so every entry of such a flow is
// live for the whole flow.
type pktState uint8

// pktState flags.
const (
	pktSent        pktState = 1 << iota // transmitted at least once
	pktResent                           // transmitted more than once
	pktAcked                            // first ACK arrived
	pktDontCare                         // block satisfied without this packet; never (re)send
	pktInFlight                         // counted in Conn.inFlight
	pktLossPending                      // queued for retransmission, not yet re-sent

	// settled entries need nothing more: acknowledged, or their block
	// was satisfied without them.
	settled = pktAcked | pktDontCare
)

// blockSatisfied is the value of EC block b's slot, state[sched.n+b], once
// the receiver confirmed the block decodable.
const blockSatisfied pktState = 1

// has reports whether any of the flags in f is set.
func (s pktState) has(f pktState) bool { return s&f != 0 }

// ConnStats are cumulative sender-side counters.
type ConnStats struct {
	PktsSent      uint64
	PktsRetrans   uint64
	AcksReceived  uint64
	MarkedAcks    uint64
	Timeouts      uint64
	FastRetrans   uint64
	NacksReceived uint64
	CnmsReceived  uint64 // QCN congestion notifications received
	TrimNotices   uint64 // trimmed-packet loss notifications received
	BytesAcked    int64  // wire bytes acknowledged (first ACK per packet)
	// SpuriousRetrans counts schedule entries declared lost (by either
	// detector or by a timeout) whose original transmission then turned out
	// to have arrived: the ACK of the original came in while the entry was
	// queued for retransmission or already retransmitted.
	SpuriousRetrans uint64
}

// Conn is the sender side of one flow. Congestion-control and path-selector
// policies observe and steer it through the exported accessors. All methods
// run on the simulation goroutine.
//
// A Conn outlives its flow as a result handle: finish tears down everything
// transmission needed (timers, policies, per-packet state, the demux entry)
// and leaves Flow, Stats, FCT and Completed readable.
type Conn struct {
	ep     *Endpoint
	flow   *Flow
	params Params
	cc     CongestionControl
	lb     PathSelector

	sched schedule
	// state holds one flag byte per schedule entry, then one per EC block
	// (blockSatisfied): the blocks share the entries' allocation.
	state  []pktState
	sentAt []eventq.Time // last transmission time per schedule entry

	nextNew  int64   // next never-sent schedule index
	rtxQ     []int64 // retransmission queue (schedule indices)
	inFlight int64   // wire bytes outstanding
	cwnd     float64 // congestion window, wire bytes
	pacing   float64 // pacing rate in bits/s; 0 disables pacing

	nextSendAt eventq.Time
	sendTimer  *eventq.Timer // pacer wakeup, bound once to trySend

	srtt, rttvar eventq.Time

	// Lazy TCP-style retransmission timer: armed at lastProgress+rto and
	// re-checked on expiry, so per-ACK work is O(1). A reusable Timer: the
	// callback is bound once and every (re)arming is allocation-free.
	rtoTimer     *eventq.Timer
	lastProgress eventq.Time

	// Fast-retransmit state.
	lowestUnacked int64
	// maxAckedSent is the latest transmission time among acked packets —
	// the RACK loss-sweep reference point.
	maxAckedSent eventq.Time

	policyTimers []*eventq.Timer // handed out by NewTimer, released by finish

	// The small fields share one word.
	acksAboveLow int32 // fast-retransmit evidence count
	rtoBackoff   uint8
	hasRTT       bool
	running      bool // both policies initialized; transmission may begin
	completed    bool

	stats  ConnStats
	fct    eventq.Time
	onDone func(*Conn)
}

// newConn builds (but does not start) a sender.
func newConn(ep *Endpoint, flow *Flow, params *Params, sched schedule, cc CongestionControl, lb PathSelector, onDone func(*Conn)) *Conn {
	c := &Conn{
		ep:     ep,
		flow:   flow,
		params: *params,
		cc:     cc,
		lb:     lb,
		sched:  sched,
		state:  make([]pktState, sched.n+sched.nBlocks),
		sentAt: make([]eventq.Time, sched.n),
		cwnd:   float64(params.MTU + HeaderSize), // until the controller's Init sets it
		onDone: onDone,
	}
	sch := ep.host.Network().Sched
	c.sendTimer = sch.NewTimerArg(connTrySend, c)
	c.rtoTimer = sch.NewTimerArg(connOnRTO, c)
	return c
}

// The two timer callbacks, pre-bound so a flow's timers need no closures.
func connTrySend(a any) { a.(*Conn).trySend() }
func connOnRTO(a any)   { a.(*Conn).onRTO() }

// Launch runs the policies' Init hooks and begins transmitting. It must
// run on the source host's shard at the flow's start time: everything
// before it (newConn via Open) is passive setup, everything from here on
// draws entropy and schedules events on the source shard's clock.
func (c *Conn) Launch() {
	c.lastProgress = c.Now()
	c.cc.Init(c)
	c.lb.Init(c)
	c.running = true
	c.trySend()
}

// ---- accessors for policies and harnesses ----

// Flow returns the flow descriptor.
func (c *Conn) Flow() *Flow { return c.flow }

// Params returns the transport parameters.
func (c *Conn) Params() Params { return c.params }

// Scheduler returns the simulation scheduler.
func (c *Conn) Scheduler() *eventq.Scheduler { return c.ep.host.Network().Sched }

// NewTimer returns a timer for a policy's own ticks (UnoCC's Quick Adapt
// period). It belongs to the flow: completion cancels and releases it, so a
// tick can neither fire for a finished flow nor pin a scheduler slot past
// it. The hook sits on the Conn, not on the policy interfaces, so it also
// reaches a policy that a harness has wrapped.
func (c *Conn) NewTimer(fn func()) *eventq.Timer {
	t := c.Scheduler().NewTimer(fn)
	c.policyTimers = append(c.policyTimers, t)
	return t
}

// Rand returns the simulation's deterministic RNG.
func (c *Conn) Rand() *rng.Rand { return c.ep.host.Network().Rand }

// Now returns the current simulated time.
func (c *Conn) Now() eventq.Time { return c.Scheduler().Now() }

// Cwnd returns the congestion window in wire bytes.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// SetCwnd sets the congestion window, clamped to at least one packet.
func (c *Conn) SetCwnd(w float64) {
	min := float64(c.params.MTU + HeaderSize)
	if w < min {
		w = min
	}
	grew := w > c.cwnd
	c.cwnd = w
	if grew && !c.completed {
		c.trySend()
	}
}

// PacingRate returns the pacing rate in bits per second (0 = unpaced).
func (c *Conn) PacingRate() float64 { return c.pacing }

// SetPacingRate sets the pacing rate in bits per second; 0 disables pacing.
func (c *Conn) SetPacingRate(bps float64) {
	if bps < 0 {
		bps = 0
	}
	c.pacing = bps
	if !c.completed {
		c.trySend()
	}
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (c *Conn) SRTT() eventq.Time { return c.srtt }

// InFlight returns the outstanding wire bytes.
func (c *Conn) InFlight() int64 { return c.inFlight }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// Completed reports whether the flow finished.
func (c *Conn) Completed() bool { return c.completed }

// FCT returns the flow completion time (valid only once Completed).
func (c *Conn) FCT() eventq.Time { return c.fct }

// MTUWire returns the wire size of a full data packet.
func (c *Conn) MTUWire() int { return c.params.MTU + HeaderSize }

// TotalPkts returns the static schedule length (data + parity packets).
func (c *Conn) TotalPkts() int64 { return c.sched.n }

// ---- sending ----

// wireSize returns the wire size of schedule entry seq.
func (c *Conn) wireSize(seq int64) int { return c.sched.desc(seq).wire }

// nextToSend picks the next schedule index to transmit: retransmissions
// first, then fresh packets. Returns -1 when nothing is eligible.
func (c *Conn) nextToSend() int64 {
	for len(c.rtxQ) > 0 {
		seq := c.rtxQ[0]
		if st := c.state[seq]; st.has(settled|pktInFlight) || !st.has(pktLossPending) {
			c.rtxQ = c.rtxQ[1:]
			continue
		}
		return seq
	}
	for c.nextNew < c.sched.n {
		// A block the receiver confirmed decodable needs none of its
		// remaining packets.
		if c.state[c.nextNew].has(pktDontCare) {
			c.nextNew++
			continue
		}
		return c.nextNew
	}
	return -1
}

// trySend transmits as many packets as the window and pacer allow.
func (c *Conn) trySend() {
	if !c.running || c.completed {
		return
	}
	for {
		now := c.Now()
		if c.pacing > 0 && now < c.nextSendAt {
			c.armSendEvent(c.nextSendAt)
			return
		}
		seq := c.nextToSend()
		if seq < 0 {
			return
		}
		d := c.sched.desc(seq)
		size := d.wire
		// Window check: always allow one packet when nothing is in
		// flight, so the flow can never stall on a tiny window.
		if c.inFlight > 0 && float64(c.inFlight+int64(size)) > c.cwnd {
			return
		}
		c.transmit(seq, d)
		if c.pacing > 0 {
			c.nextSendAt = now + eventq.Time(float64(size)*8*float64(eventq.Second)/c.pacing)
		}
	}
}

// armSendEvent schedules a pacer wakeup at time at.
func (c *Conn) armSendEvent(at eventq.Time) {
	if c.sendTimer.Pending() && c.sendTimer.At() <= at {
		return
	}
	c.sendTimer.Reset(at)
}

// transmit puts schedule entry seq, whose descriptor is d, on the wire.
func (c *Conn) transmit(seq int64, d pktDesc) {
	st := &c.state[seq]
	p := c.ep.host.Network().AllocPacket()
	p.Type = netsim.Data
	p.Flow = c.flow.ID
	p.Src = c.flow.Src.ID()
	p.Dst = c.flow.Dst.ID()
	p.Size = d.wire
	p.Seq = seq
	p.ECNCapable = true
	p.SentAt = c.Now()
	p.IsRtx = st.has(pktSent)
	p.Block = d.block
	p.BlockIdx = d.blockIdx
	p.IsParity = d.parity
	p.Subflow = -1
	c.lb.Assign(c, p)

	if p.IsRtx {
		c.stats.PktsRetrans++
		*st |= pktResent
	} else {
		c.lastProgress = p.SentAt
	}
	c.stats.PktsSent++
	c.sentAt[seq] = p.SentAt
	if !st.has(pktInFlight) { // probes may re-send an already-counted packet
		c.inFlight += int64(d.wire)
	}
	*st = *st&^pktLossPending | pktSent | pktInFlight
	if seq == c.nextNew {
		c.nextNew++
	}
	c.flow.Src.Send(p)
	c.armRTO()
}

// ---- RTO ----

// rto returns the current retransmission timeout with backoff applied,
// clamped to [MinRTO, MaxRTO]. Until the flow has an RTT sample it is
// MaxRTO, RFC 6298's conservative initial RTO: MinRTO is a multiple of the
// unloaded BaseRTT and knows nothing of the queue in front of the first
// ACK — the sender's own NIC included, where four flows' initial windows
// take longer to serialize than MinRTO lasts — and onRTO resends everything
// one RTO old, so a timeout that fires with nothing lost costs a window.
func (c *Conn) rto() eventq.Time {
	if !c.hasRTT {
		return c.params.MaxRTO
	}
	base := c.params.MinRTO
	if est := c.srtt + 4*c.rttvar; est > base {
		base = est
	}
	// Clamp the estimate before the backoff loop: doubling first and
	// comparing after could wrap a large srtt+4*rttvar estimate negative
	// (int64 picoseconds) before the guard ever tripped. Inside the loop,
	// bail as soon as one more doubling would reach the cap — base then
	// never exceeds MaxRTO/2+ε, so the multiply cannot overflow.
	max := c.params.MaxRTO
	if base >= max {
		return max
	}
	for i := uint8(0); i < c.rtoBackoff; i++ {
		if base > max/2 {
			return max
		}
		base *= 2
	}
	return base
}

// armRTO keeps the retransmission timer at or before lastProgress + rto().
// A deadline that moved later (the usual case: progress) is left to onRTO to
// find when the timer expires; one that moved earlier — the first RTT sample
// replaces the conservative pre-sample RTO, an ACK resets the back-off —
// pulls the timer in, or the flow would sit out a timeout it no longer has.
func (c *Conn) armRTO() {
	if c.completed {
		return
	}
	at := c.lastProgress + c.rto()
	if c.rtoTimer.Pending() && c.rtoTimer.At() <= at {
		return
	}
	if at < c.Now() {
		at = c.Now()
	}
	c.rtoTimer.Reset(at)
}

// onRTO fires when the lazy timer expires. If real progress happened in
// the meantime it simply re-arms; otherwise the oldest outstanding packet
// is declared lost (or, if everything is acknowledged but the flow never
// saw FlowDone — the final ACK was lost — the last packet is re-sent as a
// probe to solicit a fresh FlowDone).
func (c *Conn) onRTO() {
	if c.completed {
		return
	}
	if deadline := c.lastProgress + c.rto(); c.Now() < deadline {
		c.armRTO()
		return
	}
	c.stats.Timeouts++
	// Lost is what is one RTO old by the timeout that just expired: take
	// the cutoff before backing off. Taken after, it reaches two RTOs back,
	// behind the very tail this timeout is for, and the tail waits for the
	// second, third and fourth timeout while the back-off doubles.
	cutoff := c.Now() - c.rto()
	c.lastProgress = c.Now()
	if c.rtoBackoff < 16 {
		c.rtoBackoff++
	}

	// Declare lost everything outstanding that is at least one RTO old, not
	// only the oldest packet: a burst dropped wholesale would otherwise be
	// reclaimed one packet per timeout. Scanned only on (rare) timeouts.
	outstanding := false
	for seq := c.lowestUnacked; seq < c.nextNew; seq++ {
		if st := c.state[seq]; st.has(pktInFlight) && !st.has(settled) {
			outstanding = true
			if c.sentAt[seq] <= cutoff {
				c.declareLost(seq)
			}
		}
	}
	if !outstanding && c.nextNew >= c.sched.n && len(c.rtxQ) == 0 {
		// Everything sent and acknowledged but no FlowDone: probe.
		c.probeFinalAck()
	}
	c.cc.OnTimeout(c)
	c.lb.OnTimeout(c)
	c.armRTO()
	c.trySend()
}

// probeFinalAck re-sends the last schedule entry to solicit a FlowDone.
func (c *Conn) probeFinalAck() {
	seq := c.sched.n - 1
	c.transmit(seq, c.sched.desc(seq))
}

// declareLost is the one loss verdict: every detector — trim notice, RTO,
// duplicate ACKs, RACK, block NACK — hands the entries it judges lost here,
// each behind its own guard. An entry that is settled or already queued is
// left alone; any other leaves the in-flight accounting and is queued for
// retransmission.
func (c *Conn) declareLost(seq int64) {
	st := &c.state[seq]
	if st.has(settled | pktLossPending) {
		return
	}
	c.leaveFlight(seq, c.wireSize(seq))
	*st |= pktLossPending
	c.rtxQ = append(c.rtxQ, seq)
}

// leaveFlight takes entry seq, whose wire size is wire, out of the
// in-flight accounting if it is counted there.
func (c *Conn) leaveFlight(seq int64, wire int) {
	if st := &c.state[seq]; st.has(pktInFlight) {
		*st &^= pktInFlight
		c.inFlight -= int64(wire)
	}
}

// ---- receive path (ACK / NACK handling) ----

// handleAck processes one incoming ACK packet.
func (c *Conn) handleAck(p *netsim.Packet) {
	if c.completed {
		return
	}
	now := c.Now()
	c.stats.AcksReceived++
	if p.EchoMarked {
		c.stats.MarkedAcks++
	}

	seq := p.AckSeq
	if seq < 0 || seq >= c.sched.n {
		// The receiver echoes only sequence numbers of the schedule, so
		// this ACK was forged or corrupted on the way: no state to release.
		return
	}
	st := &c.state[seq]
	d := c.sched.desc(seq)

	if p.EchoTrimmed {
		// Fast loss notification: the packet's payload was trimmed at a
		// congested queue. Queue an immediate retransmission and let the
		// policies treat it as a congestion/path signal.
		c.stats.TrimNotices++
		c.declareLost(seq)
		c.cc.OnNack(c)
		c.lb.OnNack(c)
		if p.FlowDone {
			c.finish(now)
			return
		}
		c.armRTO()
		c.trySend()
		return
	}

	info := AckInfo{
		Seq:    seq,
		Marked: p.EchoMarked,
		SentAt: p.EchoSentAt,
		IsRtx:  p.EchoRtx,
		Now:    now,
	}
	// RTT sampling (Karn's rule: skip retransmitted packets).
	if !p.EchoRtx {
		if rtt := now - p.EchoSentAt; rtt > 0 {
			info.RTT = rtt
			c.updateRTT(rtt)
		}
	}

	// The original transmission arrived after all: declaring it lost was
	// wrong, whichever detector did.
	if !p.EchoRtx && st.has(pktLossPending|pktResent) {
		c.stats.SpuriousRetrans++
	}

	// Any ACK for a packet we believe is in flight removes it from the
	// in-flight accounting, including probes of already-acked packets.
	c.leaveFlight(seq, d.wire)
	if !st.has(pktAcked) {
		*st = *st&^pktLossPending | pktAcked
		info.Bytes = d.wire
		c.stats.BytesAcked += int64(info.Bytes)
		c.rtoBackoff = 0
		c.lastProgress = now
	}

	// Receiver-confirmed block completion lets the sender drop stragglers.
	if p.AckBlock >= 0 && p.AckBlockOK {
		c.satisfyBlock(p.AckBlock)
	}
	if p.EchoSentAt > c.maxAckedSent {
		c.maxAckedSent = p.EchoSentAt
	}
	c.advanceLowestUnacked()
	c.maybeFastRetransmit(info)
	c.rackSweep()

	c.cc.OnAck(c, info)
	c.lb.OnAck(c, info, p.Subflow, p.Entropy)

	if p.FlowDone {
		c.finish(now)
		return
	}
	c.armRTO()
	c.trySend()
}

// updateRTT runs the RFC 6298 estimator.
func (c *Conn) updateRTT(rtt eventq.Time) {
	if !c.hasRTT {
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.hasRTT = true
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// satisfyBlock marks block b decodable: unacked packets become don't-care
// and leave the in-flight accounting and retransmission queues. Entries
// already queued for retransmission stay in rtxQ but are skipped by
// nextToSend once dontCare; in-flight bytes are released exactly once here
// (lossPending entries were already released when they were declared lost).
func (c *Conn) satisfyBlock(b int32) {
	if c.blockDone(b) {
		return
	}
	c.state[c.sched.n+int64(b)] = blockSatisfied
	blk := c.sched.block(b)
	for seq := blk.start; seq < blk.start+int64(blk.count); seq++ {
		st := &c.state[seq]
		if st.has(settled) {
			continue
		}
		c.leaveFlight(seq, c.wireSize(seq))
		*st = *st&^pktLossPending | pktDontCare
	}
}

// blockDone reports whether the receiver confirmed EC block b decodable; a
// block outside the schedule counts as done, so hostile ACKs and NACKs
// naming one are ignored.
func (c *Conn) blockDone(b int32) bool {
	return b < 0 || int64(b) >= c.sched.nBlocks || c.state[c.sched.n+int64(b)] == blockSatisfied
}

// advanceLowestUnacked moves the fast-retransmit cursor past finished
// packets.
func (c *Conn) advanceLowestUnacked() {
	moved := false
	for c.lowestUnacked < c.sched.n {
		if c.state[c.lowestUnacked].has(settled) {
			c.lowestUnacked++
			moved = true
			continue
		}
		break
	}
	if moved {
		c.acksAboveLow = 0
	}
}

// maybeFastRetransmit implements duplicate-ACK-style loss detection with a
// RACK-flavoured guard: once DupAckThresh packets that were sent *after*
// the lowest unacked in-flight packet are acknowledged, that packet is
// declared lost and queued for retransmission. The send-time comparison
// prevents re-declaring a freshly retransmitted packet lost on ACKs of the
// original window.
func (c *Conn) maybeFastRetransmit(info AckInfo) {
	low := c.lowestUnacked
	if low >= c.sched.n || info.Seq <= low {
		return
	}
	if st := c.state[low]; !st.has(pktInFlight) || st.has(settled) {
		return
	}
	if info.SentAt < c.sentAt[low] {
		return // evidence predates the candidate's last transmission
	}
	c.acksAboveLow++
	if int(c.acksAboveLow) < c.params.DupAckThresh {
		return
	}
	c.acksAboveLow = 0
	c.declareLost(low)
	c.stats.FastRetrans++
}

// rackSweep declares lost every leading outstanding packet whose last
// transmission predates the newest acked transmission by more than a
// reordering window (RACK-style time-based loss detection). It walks from
// the lowest unacked packet and stops at the first one that is not provably
// old, which keeps the per-ACK cost O(1) amortized: without it, a large
// initial burst that mostly tail-drops (incast with a BDP-sized initial
// window) leaves in-flight bytes that only RTOs would reclaim, one packet
// at a time.
func (c *Conn) rackSweep() {
	if c.maxAckedSent == 0 {
		return
	}
	win := c.srtt / 4
	if win <= 0 {
		win = c.params.BaseRTT / 4
	}
	for seq := c.lowestUnacked; seq < c.nextNew; seq++ {
		st := c.state[seq]
		if st.has(settled | pktLossPending) {
			continue
		}
		if !st.has(pktInFlight) || c.sentAt[seq]+win >= c.maxAckedSent {
			break
		}
		c.declareLost(seq)
		c.stats.FastRetrans++
	}
}

// handleNack processes a UnoRC block NACK: retransmit the listed missing
// packets and tell the policies.
func (c *Conn) handleNack(p *netsim.Packet) {
	if c.completed {
		return
	}
	c.stats.NacksReceived++
	b := p.NackBlock
	if c.blockDone(b) {
		return
	}
	blk := c.sched.block(b)
	for _, idx := range p.Missing {
		seq := blk.start + int64(idx)
		if idx < 0 || seq >= blk.start+int64(blk.count) {
			continue
		}
		if c.state[seq].has(pktSent) {
			c.declareLost(seq)
		}
	}
	c.cc.OnNack(c)
	c.lb.OnNack(c)
	c.armRTO()
	c.trySend()
}

// handleCnm delivers a QCN congestion notification to controllers that
// opt in via the CnmReceiver extension interface.
func (c *Conn) handleCnm(p *netsim.Packet) {
	if c.completed {
		return
	}
	c.stats.CnmsReceived++
	if r, ok := c.cc.(CnmReceiver); ok {
		r.OnCnm(c, p.Feedback)
	}
}

// finish records completion and tears the sender down to a result handle:
// the timers' slab events — the policies' too — go back to the scheduler,
// the policies are dropped, the demux entry goes (every handler returns on
// c.completed anyway, so late ACKs lose nothing by missing it) and the
// per-packet state is released. Flow, Stats, FCT and Completed stay valid.
func (c *Conn) finish(now eventq.Time) {
	if c.completed {
		return
	}
	c.completed = true
	c.fct = now - c.flow.Start
	c.rtoTimer.Release()
	c.sendTimer.Release()
	for _, t := range c.policyTimers {
		t.Release()
	}
	c.cc, c.lb, c.policyTimers = nil, nil, nil
	delete(c.ep.senders, c.flow.ID)
	c.state, c.sentAt, c.rtxQ = nil, nil, nil
	if c.onDone != nil {
		c.onDone(c)
	}
}
