package transport

import (
	"uno/internal/ec"
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

	ft *fountainReceiver // nil under SchemeRS

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

// fountainReceiver is the rateless scheme's receiver state. Under the
// fountain scheme a block completes when its rank decoder spans the source
// space, and repair symbols appended past the static schedule (seq >=
// sched.n) are accepted using their header's Block/BlockIdx.
type fountainReceiver struct {
	decs     []*ec.FountainDecoder // dropped once the message completes
	gotExtra map[int64]struct{}    // arrivals beyond the static schedule
}

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
	if params.EC.Fountain() {
		codec := ec.MustNewFountain(params.EC.Data, params.EC.Parity)
		r.ft = &fountainReceiver{decs: make([]*ec.FountainDecoder, len(r.blocks))}
		for b := range r.ft.decs {
			// Both endpoints derive the block seed from the flow id, so
			// symbol neighbor sets need no handshake.
			r.ft.decs[b] = codec.Decoder(
				ec.BlockSeed(uint64(flow.ID), uint64(b)), int(sched.dataIn(int64(b))), 0)
		}
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

// maxExtraArrivals bounds the dynamic-arrival set so adversarial sequence
// numbers cannot grow receiver memory without bound.
const maxExtraArrivals = 1 << 16

// handleData processes an arriving data packet and responds with an ACK.
func (r *Receiver) handleData(p *netsim.Packet) {
	seq := p.Seq
	if seq < 0 {
		return
	}
	block, blockIdx, parity := int32(-1), int16(-1), false
	switch {
	case seq < r.sched.n:
		d := r.sched.desc(seq)
		block, blockIdx, parity = d.block, d.blockIdx, d.parity
	case r.ft != nil && p.IsParity && p.Block >= 0 &&
		int(p.Block) < len(r.blocks) && p.BlockIdx >= 0:
		// A fountain repair symbol appended past the static schedule: the
		// header's own block/id fields identify it. The bounds checks
		// matter — this path is reachable with adversarial input.
		block, blockIdx, parity = p.Block, p.BlockIdx, true
	default:
		return
	}

	if p.Trimmed {
		// The payload was cut at an overflowing queue: echo an immediate
		// loss notification instead of recording a delivery (NDP-style).
		r.TrimmedPkts++
		ack := r.newAck(p)
		ack.EchoTrimmed = true
		r.ep.host.Send(ack)
		return
	}

	fresh := false
	if seq < r.sched.n {
		if !r.has(seq) {
			r.set(seq)
			fresh = true
		}
	} else if _, dup := r.ft.gotExtra[seq]; !dup && len(r.ft.gotExtra) < maxExtraArrivals {
		if r.ft.gotExtra == nil {
			r.ft.gotExtra = make(map[int64]struct{})
		}
		r.ft.gotExtra[seq] = struct{}{}
		fresh = true
	}
	if fresh {
		r.gotCount++
		if !parity {
			r.dataGot++
		}
		if block >= 0 {
			r.onBlockArrival(block, blockIdx)
		}
		r.checkComplete()
	} else {
		r.DupPkts++
	}

	ack := r.newAck(p)
	ack.EchoMarked = p.ECNMarked
	ack.AckBlock = block
	ack.AckBlockOK = block >= 0 && r.blocks[block].complete
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

// onBlockArrival updates block state for a newly received packet carrying
// block symbol id.
func (r *Receiver) onBlockArrival(b int32, id int16) {
	blk := &r.blocks[b]
	if blk.complete {
		return
	}
	blk.got++
	decodable := false
	if r.ft != nil {
		// Rateless: decodable exactly when the received neighbor sets
		// span the source space.
		dec := r.ft.decs[b]
		if dec.Add(int(id), nil) != nil {
			return // symbol id outside the codec's range (adversarial)
		}
		decodable = dec.Decoded()
	} else {
		// MDS property: any dataCount distinct packets decode the block.
		decodable = int64(blk.got) >= r.sched.dataIn(int64(b))
	}
	if decodable {
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
	if r.ft != nil {
		// Rateless: report the rank deficit as that many not-directly-
		// received source ids. Source symbols are always innovative, so
		// the deficit never exceeds the missing-source count, and the
		// sender reads len(Missing) as "mint this many fresh symbols".
		dec := r.ft.decs[b]
		need := dec.Needed()
		direct := dec.DirectData()
		for i := int16(0); i < desc.dataCount && len(missing) < need; i++ {
			if direct&(1<<uint(i)) == 0 {
				missing = append(missing, i)
			}
		}
	} else {
		for i := int16(0); i < desc.count; i++ {
			if !r.has(desc.start + int64(i)) {
				missing = append(missing, i)
			}
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
	// The receiver stays registered — late duplicates still need their ACK,
	// which reads the bitmap and the blocks' complete flags — but every
	// block is complete, so its NACK timer is released and no decoder is
	// fed again.
	if r.ft != nil {
		r.ft.decs = nil
	}
}
