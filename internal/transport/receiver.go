package transport

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
)

// rcvBlock tracks one erasure-coding block at the receiver.
type rcvBlock struct {
	got      int16
	nacks    int16
	complete bool
	// timer is the block's NACK timer, created lazily on first arming,
	// reused (rearmed in place) across NACK retries and released (nil
	// again) when the block completes.
	timer *eventq.Timer
}

// timerPending reports whether the block's NACK timer is armed.
func (b *rcvBlock) timerPending() bool { return b.timer != nil && b.timer.Pending() }

// Receiver is the receive side of one flow: it tracks which schedule
// entries arrived, detects block completion for erasure-coded flows, arms
// the per-block NACK timers of §4.2, and acknowledges every data packet.
type Receiver struct {
	ep   *Endpoint
	flow *Flow

	sched    schedule // Open's copy of the sender's
	got      []uint64 // arrival bitmap over the schedule
	gotCount int64    // distinct packets received
	dataGot  int64    // distinct data (non-parity) packets received
	blocks   []rcvBlock

	// The NACK timer's first period (EC.BlockTimeout) and the ceiling of
	// its retry back-off (8 × BaseRTT): all the receiver needs of Params.
	blockTimeout, maxNackBackoff eventq.Time

	complete   bool
	completeAt eventq.Time

	// Stats.
	DupPkts     uint64
	NacksSent   uint64
	TrimmedPkts uint64
}

// maxBlockNacks bounds NACK retries per block; beyond it the sender's RTO
// is the backstop.
const maxBlockNacks = 8

func newReceiver(ep *Endpoint, flow *Flow, params *Params, sched schedule) *Receiver {
	r := &Receiver{
		ep:             ep,
		flow:           flow,
		sched:          sched,
		got:            make([]uint64, (sched.n+63)/64),
		blockTimeout:   params.EC.BlockTimeout,
		maxNackBackoff: 8 * params.BaseRTT,
	}
	if sched.nBlocks > 0 {
		r.blocks = make([]rcvBlock, sched.nBlocks)
	}
	return r
}

// Complete reports whether the full message is reconstructable.
func (r *Receiver) Complete() bool { return r.complete }

// CompleteAt returns when the message became reconstructable.
func (r *Receiver) CompleteAt() eventq.Time { return r.completeAt }

func (r *Receiver) has(seq int64) bool {
	return r.got[seq>>6]&(1<<(uint(seq)&63)) != 0
}

func (r *Receiver) set(seq int64) {
	r.got[seq>>6] |= 1 << (uint(seq) & 63)
}

// handleData processes an arriving data packet and responds with an ACK.
func (r *Receiver) handleData(p *netsim.Packet) {
	seq := p.Seq
	if seq < 0 || seq >= r.sched.n {
		return
	}
	d := r.sched.desc(seq)

	if p.Trimmed {
		// The payload was cut at an overflowing queue: echo an immediate
		// loss notification instead of recording a delivery (NDP-style).
		r.TrimmedPkts++
		ack := r.newAck(p)
		ack.EchoTrimmed = true
		r.ep.host.Send(ack)
		return
	}

	if !r.has(seq) {
		r.set(seq)
		r.gotCount++
		if !d.parity {
			r.dataGot++
		}
		if d.block >= 0 {
			r.onBlockArrival(d.block)
		}
		r.checkComplete()
	} else {
		r.DupPkts++
	}

	ack := r.newAck(p)
	ack.EchoMarked = p.ECNMarked
	ack.AckBlock = d.block
	ack.AckBlockOK = d.block >= 0 && r.blocks[d.block].complete
	r.ep.host.Send(ack)
}

// newAck builds the acknowledgement of data packet p, trimmed or whole: the
// echo fields every ACK carries, with no block report. The ACK keeps p's
// Entropy, as the ACK of a real flow keeps the 5-tuple of its data: ACKs of
// packets that shared a forward path share one reverse path and arrive in
// the order they were sent, so the sender's time-based loss sweep sees no
// reordering a single path cannot produce, and a path selector's OnAck
// learns about the path it actually chose. (A fresh random entropy per ACK
// sprayed a one-path flow's ACKs over every reverse path, and the sender
// read the overtaking as loss — DESIGN §5, "Loss recovery".)
func (r *Receiver) newAck(p *netsim.Packet) *netsim.Packet {
	ack := r.ep.host.Network().AllocPacket()
	ack.Type = netsim.Ack
	ack.Flow = r.flow.ID
	ack.Src = r.flow.Dst.ID()
	ack.Dst = r.flow.Src.ID()
	ack.Size = netsim.AckSize
	ack.Entropy = p.Entropy
	ack.Subflow = p.Subflow
	ack.AckSeq = p.Seq
	ack.EchoSentAt = p.SentAt
	ack.EchoRtx = p.IsRtx
	ack.AckBlock = -1
	ack.FlowDone = r.complete
	return ack
}

// onBlockArrival updates block state for a newly received packet of block b.
func (r *Receiver) onBlockArrival(b int32) {
	blk := &r.blocks[b]
	if blk.complete {
		return
	}
	blk.got++
	// MDS property: any dataCount distinct packets decode the block.
	if int64(blk.got) >= r.sched.dataIn(int64(b)) {
		// Nothing arms the NACK timer of a complete block again: hand its
		// slab event back now, not when the simulation ends.
		blk.complete = true
		if blk.timer != nil {
			blk.timer.Release()
			blk.timer = nil
		}
		return
	}
	if !blk.timerPending() && blk.got == 1 {
		r.armBlockTimer(b, r.blockTimeout)
	}
}

// armBlockTimer starts the NACK timer of §4.2: if the block is still not
// decodable when it fires, a NACK listing the missing packets is sent. The
// Timer is created once per block (on first arming) and rearmed in place
// for retries.
func (r *Receiver) armBlockTimer(b int32, after eventq.Time) {
	blk := &r.blocks[b]
	if blk.timer == nil {
		blk.timer = r.ep.host.Network().Sched.NewTimer(func() { r.onBlockTimeout(b) })
	}
	blk.timer.ResetAfter(after)
}

// onBlockTimeout fires the NACK path for block b.
func (r *Receiver) onBlockTimeout(b int32) {
	blk := &r.blocks[b]
	if blk.complete || r.complete {
		return
	}
	if blk.nacks >= maxBlockNacks {
		return // sender RTO takes over
	}
	blk.nacks++
	r.NacksSent++

	// Collect missing indices within the block, reusing the pooled
	// packet's NACK buffer (length zero, capacity from prior frees).
	nack := r.ep.host.Network().AllocPacket()
	missing := nack.Missing[:0]
	desc := r.sched.block(b)
	for i := int16(0); i < desc.count; i++ {
		if !r.has(desc.start + int64(i)) {
			missing = append(missing, i)
		}
	}
	nack.Type = netsim.Nack
	nack.Flow = r.flow.ID
	nack.Src = r.flow.Dst.ID()
	nack.Dst = r.flow.Src.ID()
	nack.Size = netsim.AckSize
	// A NACK reports a block, not a packet: it has no data path to return
	// on, and must not die with the path it complains about. It keeps a
	// random entropy (so do its retries, each a fresh draw).
	nack.Entropy = r.ep.host.Network().Rand.Uint32()
	nack.NackBlock = b
	nack.Missing = missing
	r.ep.host.Send(nack)
	if blk.nacks >= maxBlockNacks {
		// Retry budget spent: the sender's RTO is the backstop from here
		// on. Re-arming anyway would leave one guaranteed no-op timer
		// firing pending — a leak the pool-discipline invariant charges
		// against the run (see TestBlockNackExhaustionNoRearm).
		return
	}
	// Exponential backoff on retries, in case the NACK or the
	// retransmissions are lost too.
	backoff := r.blockTimeout << uint(blk.nacks)
	if max := r.maxNackBackoff; backoff > max && max > 0 {
		backoff = max
	}
	r.armBlockTimer(b, backoff)
}

// checkComplete evaluates whether the message is fully reconstructable.
func (r *Receiver) checkComplete() {
	if r.complete {
		return
	}
	if len(r.blocks) > 0 {
		for i := range r.blocks {
			if !r.blocks[i].complete {
				return
			}
		}
	} else if r.dataGot < r.sched.nData {
		return
	}
	r.complete = true
	r.completeAt = r.ep.host.Network().Sched.Now()
}
