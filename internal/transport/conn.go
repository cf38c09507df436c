package transport

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// pktState is the sender's bit flags for one schedule entry; the entry's
// last transmission time is sender.sentAt[seq]. Nine bytes per entry in all,
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

// Conn is one flow's handle: what Open returns, what policies observe and
// steer the flow through, and — once the flow completed — its result record.
// All methods run on the source host's shard.
//
// The handle holds only what outlives the flow: Flow, Stats, FCT,
// Completed, and the window and in-flight bytes at their final values. The
// live sender state — schedule, per-packet flags and send times,
// retransmission queue, RTT and RTO estimators, timers, policies — is a
// sender that finish returns to its shard's free list for the next flow to
// reuse. Accessors of live state (Params, SRTT, PacingRate, MTUWire,
// TotalPkts) read zero after completion.
type Conn struct {
	flow *Flow
	s    *sender // live sender state; nil once completed

	stats    ConnStats
	fct      eventq.Time
	cwnd     float64 // congestion window, wire bytes
	inFlight int64   // wire bytes outstanding
}

// sender is the live half of a Conn: everything transmission needs and a
// finished flow does not. It belongs to its shard's flowTable: taken by
// Open, reset there, and returned by finish; its pacer and RTO timers stay
// bound to it across flows.
type sender struct {
	c      *Conn // the flow this state serves now
	ep     *Endpoint
	params Params
	cc     CongestionControl
	lb     PathSelector

	sched schedule
	// state holds one flag byte per schedule entry, then one per EC block
	// (blockSatisfied): the blocks share the entries' allocation.
	state  []pktState
	sentAt []eventq.Time // last transmission time per schedule entry

	nextNew int64   // next never-sent schedule index
	rtxQ    []int64 // retransmission queue (schedule indices)
	pacing  float64 // pacing rate in bits/s; 0 disables pacing

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

	policyTimers []*eventq.Timer // handed out by NewTimerArg, released by finish

	// The small fields share one word.
	acksAboveLow int32 // fast-retransmit evidence count
	rtoBackoff   uint8
	hasRTT       bool
	running      bool // both policies initialized; transmission may begin
	done         bool // FlowDone seen; the state is being returned

	onDone func(*Conn)
}

// The two timer callbacks, pre-bound so a sender's timers need no closures.
func senderTrySend(a any) { a.(*sender).trySend() }
func senderOnRTO(a any)   { a.(*sender).onRTO() }

// Launch runs the policies' Init hooks and begins transmitting. It must
// run on the source host's shard at the flow's start time: everything
// before it (Open) is passive setup, everything from here on draws entropy
// and schedules events on the source shard's clock.
func (c *Conn) Launch() {
	s := c.s
	s.lastProgress = s.now()
	s.cc.Init(c)
	s.lb.Init(c)
	s.running = true
	s.trySend()
}

// ---- accessors for policies and harnesses ----

// Flow returns the flow descriptor.
func (c *Conn) Flow() *Flow { return c.flow }

// Params returns the transport parameters (zero once completed).
func (c *Conn) Params() Params {
	if c.s == nil {
		return Params{}
	}
	return c.s.params
}

// Policies returns the flow's congestion controller and path selector. They
// are the flow's until it completes: the completion callback may take them
// back for reuse; afterwards both are nil.
func (c *Conn) Policies() (CongestionControl, PathSelector) {
	if c.s == nil {
		return nil, nil
	}
	return c.s.cc, c.s.lb
}

// Scheduler returns the simulation scheduler.
func (c *Conn) Scheduler() *eventq.Scheduler { return c.flow.Src.Network().Sched }

// NewTimerArg returns a timer calling fn(arg), for a policy's own ticks
// (UnoCC's Quick Adapt period). It belongs to the flow: completion cancels
// and releases it, so a tick can neither fire for a finished flow nor pin a
// scheduler slot past it. The hook sits on the Conn, not on the policy
// interfaces, so it also reaches a policy that a harness has wrapped. Call
// it only while the flow is live.
func (c *Conn) NewTimerArg(fn func(any), arg any) *eventq.Timer {
	t := c.Scheduler().NewTimerArg(fn, arg)
	c.s.policyTimers = append(c.s.policyTimers, t)
	return t
}

// Rand returns the simulation's deterministic RNG.
func (c *Conn) Rand() *rng.Rand { return c.flow.Src.Network().Rand }

// Now returns the current simulated time.
func (c *Conn) Now() eventq.Time { return c.Scheduler().Now() }

// Cwnd returns the congestion window in wire bytes.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// SetCwnd sets the congestion window, clamped to at least one packet. Once
// the flow completed the window is final and this does nothing.
func (c *Conn) SetCwnd(w float64) {
	s := c.s
	if s == nil || s.done {
		return
	}
	min := float64(s.params.MTU + HeaderSize)
	if w < min {
		w = min
	}
	grew := w > c.cwnd
	c.cwnd = w
	if grew {
		s.trySend()
	}
}

// PacingRate returns the pacing rate in bits per second (0 = unpaced).
func (c *Conn) PacingRate() float64 {
	if c.s == nil {
		return 0
	}
	return c.s.pacing
}

// SetPacingRate sets the pacing rate in bits per second; 0 disables pacing.
func (c *Conn) SetPacingRate(bps float64) {
	s := c.s
	if s == nil || s.done {
		return
	}
	if bps < 0 {
		bps = 0
	}
	s.pacing = bps
	s.trySend()
}

// SRTT returns the smoothed RTT (0 before the first sample and once
// completed).
func (c *Conn) SRTT() eventq.Time {
	if c.s == nil {
		return 0
	}
	return c.s.srtt
}

// InFlight returns the outstanding wire bytes.
func (c *Conn) InFlight() int64 { return c.inFlight }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// Completed reports whether the flow finished.
func (c *Conn) Completed() bool { return c.s == nil || c.s.done }

// FCT returns the flow completion time (valid only once Completed).
func (c *Conn) FCT() eventq.Time { return c.fct }

// MTUWire returns the wire size of a full data packet (0 once completed).
func (c *Conn) MTUWire() int {
	if c.s == nil {
		return 0
	}
	return c.s.params.MTU + HeaderSize
}

// TotalPkts returns the static schedule length, data plus parity packets
// (0 once completed).
func (c *Conn) TotalPkts() int64 {
	if c.s == nil {
		return 0
	}
	return c.s.sched.n
}

// ---- sending ----

// now returns the source shard's simulated time.
func (s *sender) now() eventq.Time { return s.ep.host.Network().Sched.Now() }

// wireSize returns the wire size of schedule entry seq.
func (s *sender) wireSize(seq int64) int { return s.sched.desc(seq).wire }

// nextToSend picks the next schedule index to transmit: retransmissions
// first, then fresh packets. Returns -1 when nothing is eligible.
func (s *sender) nextToSend() int64 {
	for len(s.rtxQ) > 0 {
		seq := s.rtxQ[0]
		if st := s.state[seq]; st.has(settled|pktInFlight) || !st.has(pktLossPending) {
			s.rtxQ = s.rtxQ[1:]
			continue
		}
		return seq
	}
	for s.nextNew < s.sched.n {
		// A block the receiver confirmed decodable needs none of its
		// remaining packets.
		if s.state[s.nextNew].has(pktDontCare) {
			s.nextNew++
			continue
		}
		return s.nextNew
	}
	return -1
}

// trySend transmits as many packets as the window and pacer allow.
func (s *sender) trySend() {
	if !s.running || s.done {
		return
	}
	for {
		now := s.now()
		if s.pacing > 0 && now < s.nextSendAt {
			s.armSendEvent(s.nextSendAt)
			return
		}
		seq := s.nextToSend()
		if seq < 0 {
			return
		}
		d := s.sched.desc(seq)
		size := d.wire
		// Window check: always allow one packet when nothing is in
		// flight, so the flow can never stall on a tiny window.
		if s.c.inFlight > 0 && float64(s.c.inFlight+int64(size)) > s.c.cwnd {
			return
		}
		s.transmit(seq, d)
		if s.pacing > 0 {
			s.nextSendAt = now + eventq.Time(float64(size)*8*float64(eventq.Second)/s.pacing)
		}
	}
}

// armSendEvent schedules a pacer wakeup at time at.
func (s *sender) armSendEvent(at eventq.Time) {
	if s.sendTimer.Pending() && s.sendTimer.At() <= at {
		return
	}
	s.sendTimer.Reset(at)
}

// transmit puts schedule entry seq, whose descriptor is d, on the wire.
func (s *sender) transmit(seq int64, d pktDesc) {
	st := &s.state[seq]
	p := s.ep.host.Network().AllocPacket()
	p.Type = netsim.Data
	p.Flow = s.c.flow.ID
	p.Src = s.c.flow.Src.ID()
	p.Dst = s.c.flow.Dst.ID()
	p.Size = d.wire
	p.Seq = seq
	p.ECNCapable = true
	p.SentAt = s.now()
	p.IsRtx = st.has(pktSent)
	p.Block = d.block
	p.BlockIdx = d.blockIdx
	p.IsParity = d.parity
	p.Subflow = -1
	s.lb.Assign(s.c, p)

	if p.IsRtx {
		s.c.stats.PktsRetrans++
		*st |= pktResent
	} else {
		s.lastProgress = p.SentAt
	}
	s.c.stats.PktsSent++
	s.sentAt[seq] = p.SentAt
	if !st.has(pktInFlight) { // probes may re-send an already-counted packet
		s.c.inFlight += int64(d.wire)
	}
	*st = *st&^pktLossPending | pktSent | pktInFlight
	if seq == s.nextNew {
		s.nextNew++
	}
	s.c.flow.Src.Send(p)
	s.armRTO()
}

// ---- RTO ----

// rto returns the current retransmission timeout with backoff applied,
// clamped to [MinRTO, MaxRTO]. Until the flow has an RTT sample it is
// MaxRTO, RFC 6298's conservative initial RTO: MinRTO is a multiple of the
// unloaded BaseRTT and knows nothing of the queue in front of the first
// ACK — the sender's own NIC included, where four flows' initial windows
// take longer to serialize than MinRTO lasts — and onRTO resends everything
// one RTO old, so a timeout that fires with nothing lost costs a window.
func (s *sender) rto() eventq.Time {
	if !s.hasRTT {
		return s.params.MaxRTO
	}
	base := s.params.MinRTO
	if est := s.srtt + 4*s.rttvar; est > base {
		base = est
	}
	// Clamp the estimate before the backoff loop: doubling first and
	// comparing after could wrap a large srtt+4*rttvar estimate negative
	// (int64 picoseconds) before the guard ever tripped. Inside the loop,
	// bail as soon as one more doubling would reach the cap — base then
	// never exceeds MaxRTO/2+ε, so the multiply cannot overflow.
	max := s.params.MaxRTO
	if base >= max {
		return max
	}
	for i := uint8(0); i < s.rtoBackoff; i++ {
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
func (s *sender) armRTO() {
	if s.done {
		return
	}
	at := s.lastProgress + s.rto()
	if s.rtoTimer.Pending() && s.rtoTimer.At() <= at {
		return
	}
	if at < s.now() {
		at = s.now()
	}
	s.rtoTimer.Reset(at)
}

// onRTO fires when the lazy timer expires. If real progress happened in
// the meantime it simply re-arms; otherwise the oldest outstanding packet
// is declared lost (or, if everything is acknowledged but the flow never
// saw FlowDone — the final ACK was lost — the last packet is re-sent as a
// probe to solicit a fresh FlowDone).
func (s *sender) onRTO() {
	if s.done {
		return
	}
	if deadline := s.lastProgress + s.rto(); s.now() < deadline {
		s.armRTO()
		return
	}
	s.c.stats.Timeouts++
	// Lost is what is one RTO old by the timeout that just expired: take
	// the cutoff before backing off. Taken after, it reaches two RTOs back,
	// behind the very tail this timeout is for, and the tail waits for the
	// second, third and fourth timeout while the back-off doubles.
	cutoff := s.now() - s.rto()
	s.lastProgress = s.now()
	if s.rtoBackoff < 16 {
		s.rtoBackoff++
	}

	// Declare lost everything outstanding that is at least one RTO old, not
	// only the oldest packet: a burst dropped wholesale would otherwise be
	// reclaimed one packet per timeout. Scanned only on (rare) timeouts.
	outstanding := false
	for seq := s.lowestUnacked; seq < s.nextNew; seq++ {
		if st := s.state[seq]; st.has(pktInFlight) && !st.has(settled) {
			outstanding = true
			if s.sentAt[seq] <= cutoff {
				s.declareLost(seq)
			}
		}
	}
	if !outstanding && s.nextNew >= s.sched.n && len(s.rtxQ) == 0 {
		// Everything sent and acknowledged but no FlowDone: probe.
		s.probeFinalAck()
	}
	s.cc.OnTimeout(s.c)
	s.lb.OnTimeout(s.c)
	s.armRTO()
	s.trySend()
}

// probeFinalAck re-sends the last schedule entry to solicit a FlowDone.
func (s *sender) probeFinalAck() {
	seq := s.sched.n - 1
	s.transmit(seq, s.sched.desc(seq))
}

// declareLost is the one loss verdict: every detector — trim notice, RTO,
// duplicate ACKs, RACK, block NACK — hands the entries it judges lost here,
// each behind its own guard. An entry that is settled or already queued is
// left alone; any other leaves the in-flight accounting and is queued for
// retransmission.
func (s *sender) declareLost(seq int64) {
	st := &s.state[seq]
	if st.has(settled | pktLossPending) {
		return
	}
	s.leaveFlight(seq, s.wireSize(seq))
	*st |= pktLossPending
	s.rtxQ = append(s.rtxQ, seq)
}

// leaveFlight takes entry seq, whose wire size is wire, out of the
// in-flight accounting if it is counted there.
func (s *sender) leaveFlight(seq int64, wire int) {
	if st := &s.state[seq]; st.has(pktInFlight) {
		*st &^= pktInFlight
		s.c.inFlight -= int64(wire)
	}
}

// ---- receive path (ACK / NACK handling) ----

// handleAck processes one incoming ACK packet.
func (s *sender) handleAck(p *netsim.Packet) {
	if s.done {
		return
	}
	now := s.now()
	s.c.stats.AcksReceived++
	if p.EchoMarked {
		s.c.stats.MarkedAcks++
	}

	seq := p.AckSeq
	if seq < 0 || seq >= s.sched.n {
		// The receiver echoes only sequence numbers of the schedule, so
		// this ACK was forged or corrupted on the way: no state to release.
		return
	}
	st := &s.state[seq]
	d := s.sched.desc(seq)

	if p.EchoTrimmed {
		// Fast loss notification: the packet's payload was trimmed at a
		// congested queue. Queue an immediate retransmission and let the
		// policies treat it as a congestion/path signal.
		s.c.stats.TrimNotices++
		s.declareLost(seq)
		s.cc.OnNack(s.c)
		s.lb.OnNack(s.c)
		if p.FlowDone {
			s.finish(now)
			return
		}
		s.armRTO()
		s.trySend()
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
			s.updateRTT(rtt)
		}
	}

	// The original transmission arrived after all: declaring it lost was
	// wrong, whichever detector did.
	if !p.EchoRtx && st.has(pktLossPending|pktResent) {
		s.c.stats.SpuriousRetrans++
	}

	// Any ACK for a packet we believe is in flight removes it from the
	// in-flight accounting, including probes of already-acked packets.
	s.leaveFlight(seq, d.wire)
	if !st.has(pktAcked) {
		*st = *st&^pktLossPending | pktAcked
		info.Bytes = d.wire
		s.c.stats.BytesAcked += int64(info.Bytes)
		s.rtoBackoff = 0
		s.lastProgress = now
	}

	// Receiver-confirmed block completion lets the sender drop stragglers.
	if p.AckBlock >= 0 && p.AckBlockOK {
		s.satisfyBlock(p.AckBlock)
	}
	if p.EchoSentAt > s.maxAckedSent {
		s.maxAckedSent = p.EchoSentAt
	}
	s.advanceLowestUnacked()
	s.maybeFastRetransmit(info)
	s.rackSweep()

	s.cc.OnAck(s.c, info)
	s.lb.OnAck(s.c, info, p.Subflow, p.Entropy)

	if p.FlowDone {
		s.finish(now)
		return
	}
	s.armRTO()
	s.trySend()
}

// updateRTT runs the RFC 6298 estimator.
func (s *sender) updateRTT(rtt eventq.Time) {
	if !s.hasRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasRTT = true
		return
	}
	diff := s.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + rtt) / 8
}

// satisfyBlock marks block b decodable: unacked packets become don't-care
// and leave the in-flight accounting and retransmission queues. Entries
// already queued for retransmission stay in rtxQ but are skipped by
// nextToSend once dontCare; in-flight bytes are released exactly once here
// (lossPending entries were already released when they were declared lost).
func (s *sender) satisfyBlock(b int32) {
	if s.blockDone(b) {
		return
	}
	s.state[s.sched.n+int64(b)] = blockSatisfied
	blk := s.sched.block(b)
	for seq := blk.start; seq < blk.start+int64(blk.count); seq++ {
		st := &s.state[seq]
		if st.has(settled) {
			continue
		}
		s.leaveFlight(seq, s.wireSize(seq))
		*st = *st&^pktLossPending | pktDontCare
	}
}

// blockDone reports whether the receiver confirmed EC block b decodable; a
// block outside the schedule counts as done, so hostile ACKs and NACKs
// naming one are ignored.
func (s *sender) blockDone(b int32) bool {
	return b < 0 || int64(b) >= s.sched.nBlocks || s.state[s.sched.n+int64(b)] == blockSatisfied
}

// advanceLowestUnacked moves the fast-retransmit cursor past finished
// packets.
func (s *sender) advanceLowestUnacked() {
	moved := false
	for s.lowestUnacked < s.sched.n {
		if s.state[s.lowestUnacked].has(settled) {
			s.lowestUnacked++
			moved = true
			continue
		}
		break
	}
	if moved {
		s.acksAboveLow = 0
	}
}

// maybeFastRetransmit implements duplicate-ACK-style loss detection with a
// RACK-flavoured guard: once DupAckThresh packets that were sent *after*
// the lowest unacked in-flight packet are acknowledged, that packet is
// declared lost and queued for retransmission. The send-time comparison
// prevents re-declaring a freshly retransmitted packet lost on ACKs of the
// original window.
func (s *sender) maybeFastRetransmit(info AckInfo) {
	low := s.lowestUnacked
	if low >= s.sched.n || info.Seq <= low {
		return
	}
	if st := s.state[low]; !st.has(pktInFlight) || st.has(settled) {
		return
	}
	if info.SentAt < s.sentAt[low] {
		return // evidence predates the candidate's last transmission
	}
	s.acksAboveLow++
	if int(s.acksAboveLow) < s.params.DupAckThresh {
		return
	}
	s.acksAboveLow = 0
	s.declareLost(low)
	s.c.stats.FastRetrans++
}

// rackSweep declares lost every leading outstanding packet whose last
// transmission predates the newest acked transmission by more than a
// reordering window (RACK-style time-based loss detection). It walks from
// the lowest unacked packet and stops at the first one that is not provably
// old, which keeps the per-ACK cost O(1) amortized: without it, a large
// initial burst that mostly tail-drops (incast with a BDP-sized initial
// window) leaves in-flight bytes that only RTOs would reclaim, one packet
// at a time.
func (s *sender) rackSweep() {
	if s.maxAckedSent == 0 {
		return
	}
	win := s.srtt / 4
	if win <= 0 {
		win = s.params.BaseRTT / 4
	}
	for seq := s.lowestUnacked; seq < s.nextNew; seq++ {
		st := s.state[seq]
		if st.has(settled | pktLossPending) {
			continue
		}
		if !st.has(pktInFlight) || s.sentAt[seq]+win >= s.maxAckedSent {
			break
		}
		s.declareLost(seq)
		s.c.stats.FastRetrans++
	}
}

// handleNack processes a UnoRC block NACK: retransmit the listed missing
// packets and tell the policies.
func (s *sender) handleNack(p *netsim.Packet) {
	if s.done {
		return
	}
	s.c.stats.NacksReceived++
	b := p.NackBlock
	if s.blockDone(b) {
		return
	}
	blk := s.sched.block(b)
	for _, idx := range p.Missing {
		seq := blk.start + int64(idx)
		if idx < 0 || seq >= blk.start+int64(blk.count) {
			continue
		}
		if s.state[seq].has(pktSent) {
			s.declareLost(seq)
		}
	}
	s.cc.OnNack(s.c)
	s.lb.OnNack(s.c)
	s.armRTO()
	s.trySend()
}

// handleCnm delivers a QCN congestion notification to controllers that
// opt in via the CnmReceiver extension interface.
func (s *sender) handleCnm(p *netsim.Packet) {
	if s.done {
		return
	}
	s.c.stats.CnmsReceived++
	if r, ok := s.cc.(CnmReceiver); ok {
		r.OnCnm(s.c, p.Feedback)
	}
}

// finish records completion and hands the live state back: the pacer and
// RTO timers are cancelled (they stay bound to the sender for its next
// flow), every timer a policy took from NewTimerArg is released, the demux
// entry goes, the completion callback runs — it may take the policies back
// for reuse — and the sender returns to its shard's free list. The handle
// keeps Flow, Stats, FCT and the final window.
func (s *sender) finish(now eventq.Time) {
	c := s.c
	s.done = true
	c.fct = now - c.flow.Start
	s.rtoTimer.Cancel()
	s.sendTimer.Cancel()
	for i, t := range s.policyTimers {
		t.Release()
		s.policyTimers[i] = nil
	}
	ft := s.ep.flows
	if !ft.keepDemux {
		delete(s.ep.senders, c.flow.ID)
	}
	if s.onDone != nil {
		s.onDone(c)
	}
	c.s = nil
	ft.putSender(s)
}
