package transport

// Regression tests from the EC block-path correctness sweep: tail-block
// schedule accounting (pinned not-a-bug), Conn.satisfyBlock exactly-once
// in-flight release, and receiver NACK-budget exhaustion.

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// assertInFlightConsistent recomputes the in-flight byte count from per-
// packet state and checks it against the connection's running counter —
// the exactly-once release invariant.
func assertInFlightConsistent(t *testing.T, conn *Conn) {
	t.Helper()
	var want int64
	if s := conn.s; s != nil { // recycled once completed
		for seq, st := range s.state {
			if seq < len(s.sentAt) && st.has(pktInFlight) {
				want += int64(s.wireSize(int64(seq)))
			}
		}
	}
	if conn.inFlight != want {
		t.Fatalf("inFlight counter %d, state says %d", conn.inFlight, want)
	}
	if conn.inFlight < 0 {
		t.Fatalf("negative in-flight bytes: %d", conn.inFlight)
	}
}

// TestTailBlockScheduleAccounting pins the tail-block audit verdict: a flow
// whose last block holds fewer than ecData packets gets a correctly shrunk
// block (count, dataCount, start), parity sized to the block's largest
// payload, and a receiver blockStart that stays valid because only the last
// block can be short. Not a bug — this test keeps it that way.
func TestTailBlockScheduleAccounting(t *testing.T) {
	for _, size := range []int64{1, 4096, 19 * 4096, 19*4096 - 100, 8*4096 + 1, 64 * 4096} {
		p := Params{MTU: 4096, EC: true}.withDefaults()
		descs, blocks := expand(p.schedule(size))
		full := int64(ecData + ecParity)
		nData := (size + int64(p.MTU) - 1) / int64(p.MTU)
		var payload int64
		for b, blk := range blocks {
			// All blocks before the last are full, so the receiver's
			// blockStart(b) = b*(ecData+ecParity) assumption holds.
			if blk.start != int64(b)*full {
				t.Fatalf("size %d block %d start %d, want %d", size, b, blk.start, int64(b)*full)
			}
			if b < len(blocks)-1 && blk.dataCount != ecData {
				t.Fatalf("size %d: non-tail block %d short (%d data)", size, b, blk.dataCount)
			}
			if blk.count != blk.dataCount+ecParity {
				t.Fatalf("size %d block %d count %d != data %d + parity %d",
					size, b, blk.count, blk.dataCount, ecParity)
			}
			maxPayload := 0
			for i := int16(0); i < blk.count; i++ {
				d := descs[blk.start+int64(i)]
				if d.block != int32(b) || d.blockIdx != i {
					t.Fatalf("size %d: desc %d labeled (%d,%d), want (%d,%d)",
						size, blk.start+int64(i), d.block, d.blockIdx, b, i)
				}
				if d.parity != (i >= blk.dataCount) {
					t.Fatalf("size %d block %d idx %d parity flag wrong", size, b, i)
				}
				if !d.parity {
					payload += int64(d.payload)
					if d.payload > maxPayload {
						maxPayload = d.payload
					}
				} else if d.wire != maxPayload+HeaderSize {
					t.Fatalf("size %d block %d: parity wire %d, want %d",
						size, b, d.wire, maxPayload+HeaderSize)
				}
			}
		}
		if payload != size {
			t.Fatalf("size %d: schedule carries %d payload bytes", size, payload)
		}
		if got := blocks[len(blocks)-1].dataCount; int64(got) != nData-(int64(len(blocks))-1)*ecData {
			t.Fatalf("size %d: tail dataCount %d", size, got)
		}
	}
}

// TestRSTailBlockLossRecovers drives the short tail block end-to-end under
// RS: losing a data packet of a 3-data-packet tail block must be repaired
// by its parity (NACK path), not stall the flow.
func TestRSTailBlockLossRecovers(t *testing.T) {
	d := newDumbbell(40, gbps100)
	dropped := false
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Data && p.Block == 2 && p.BlockIdx == 1 && !p.IsRtx && !dropped {
			dropped = true
			return true
		}
		return false
	}})
	params := d.baseParams()
	params.EC = true
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 19 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() || d.epB.Receiver(1) != nil {
		t.Fatal("tail-block flow did not complete")
	}
	if !dropped {
		t.Fatal("test did not exercise the tail block")
	}
	assertInFlightConsistent(t, conn)
}

// openPartial starts an EC flow and runs the clock just long enough that a
// window of packets is in flight but no ACK has returned.
func openPartial(t *testing.T, d *dumbbell, params Params) *Conn {
	t.Helper()
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 40 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)
	})
	d.net.Sched.RunUntil(2 * eventq.Microsecond)
	if conn.inFlight == 0 || conn.stats.AcksReceived != 0 {
		t.Fatalf("bad partial state: inFlight=%d acks=%d", conn.inFlight, conn.stats.AcksReceived)
	}
	return conn
}

// TestSatisfyBlockThenStaleAck: a block satisfied by the receiver releases
// its unacked packets from the window exactly once — a straggler ACK for a
// released packet (including one sitting declared-lost on the retransmission
// queue) must not release it again.
func TestSatisfyBlockThenStaleAck(t *testing.T) {
	d := newDumbbell(41, gbps100)
	params := d.baseParams()
	params.EC = true
	conn := openPartial(t, d, params.withDefaults())

	// Declare seq 1 lost exactly the way onRTO does: released from the
	// window, queued for retransmission, not yet re-sent.
	st := &conn.s.state[1]
	if !st.has(pktInFlight) {
		t.Fatal("seq 1 not in flight")
	}
	*st = *st&^pktInFlight | pktLossPending
	conn.inFlight -= int64(conn.s.wireSize(1))
	conn.s.rtxQ = append(conn.s.rtxQ, 1)
	assertInFlightConsistent(t, conn)

	conn.s.satisfyBlock(0)
	blk := conn.s.sched.block(0)
	for seq := blk.start; seq < blk.start+int64(blk.count); seq++ {
		s := conn.s.state[seq]
		if !s.has(pktDontCare) || s.has(pktInFlight|pktLossPending) {
			t.Fatalf("seq %d not released: flags %#x", seq, s)
		}
	}
	assertInFlightConsistent(t, conn)
	before := conn.inFlight

	// Straggler ACKs for a released in-flight packet and for the
	// retransmit-queued one: neither may release bytes again.
	for _, seq := range []int64{0, 1} {
		ack := d.net.AllocPacket()
		ack.Type = netsim.Ack
		ack.Flow = 1
		ack.Src = d.b.ID()
		ack.Dst = d.a.ID()
		ack.Size = netsim.AckSize
		ack.AckSeq = seq
		ack.EchoRtx = true // skip the RTT sampler
		ack.AckBlock = -1
		ack.Subflow = -1
		d.a.HandlePacket(ack)
	}
	if conn.inFlight != before {
		t.Fatalf("stale ACKs changed in-flight bytes: %d -> %d", before, conn.inFlight)
	}
	assertInFlightConsistent(t, conn)
	// The retransmission queue must never re-send the released entry.
	if seq := conn.s.nextToSend(); seq >= 0 && seq < blk.start+int64(blk.count) {
		t.Fatalf("nextToSend picked released seq %d", seq)
	}
}

// TestSatisfyBlockThenRTO: an RTO after a block is satisfied must not
// re-declare or retransmit that block's packets.
func TestSatisfyBlockThenRTO(t *testing.T) {
	d := newDumbbell(42, gbps100)
	// Black-hole everything so no ACK ever interferes.
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool { return true }})
	params := d.baseParams()
	params.EC = true
	conn := openPartial(t, d, params.withDefaults())

	conn.s.satisfyBlock(0)
	assertInFlightConsistent(t, conn)

	// Let real RTOs fire and declare the rest lost.
	d.net.Sched.RunUntil(5 * eventq.Millisecond)
	blk := conn.s.sched.block(0)
	for seq := blk.start; seq < blk.start+int64(blk.count); seq++ {
		s := conn.s.state[seq]
		if s.has(pktLossPending | pktInFlight) {
			t.Fatalf("satisfied seq %d re-declared: flags %#x", seq, s)
		}
		if s.has(pktResent) {
			t.Fatalf("satisfied seq %d retransmitted", seq)
		}
	}
	assertInFlightConsistent(t, conn)
}

// TestAckBlockOutOfRangeIgnored is the regression for the satisfyBlock
// bounds check: an adversarial ACK naming a block beyond the schedule used
// to index blockSatisfied out of range and panic the simulation.
func TestAckBlockOutOfRangeIgnored(t *testing.T) {
	d := newDumbbell(43, gbps100)
	params := d.baseParams()
	params.EC = true
	conn := openPartial(t, d, params.withDefaults())

	for _, b := range []int32{9999, int32(conn.s.sched.nBlocks)} {
		ack := d.net.AllocPacket()
		ack.Type = netsim.Ack
		ack.Flow = 1
		ack.Src = d.b.ID()
		ack.Dst = d.a.ID()
		ack.Size = netsim.AckSize
		ack.AckSeq = 0
		ack.EchoRtx = true
		ack.AckBlock = b
		ack.AckBlockOK = true
		ack.Subflow = -1
		d.a.HandlePacket(ack) // pre-fix: index out of range panic
	}
	assertInFlightConsistent(t, conn)
	// The flow still completes normally afterwards.
	d.net.Sched.RunUntil(10 * eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow did not complete after adversarial ACKs")
	}
}

// TestBlockNackExhaustionNoRearm: once a block's NACK budget is spent, the
// timeout handler must not re-arm the timer — the pre-fix code always armed
// one more guaranteed no-op firing.
func TestBlockNackExhaustionNoRearm(t *testing.T) {
	d := newDumbbell(44, gbps100)
	params := d.baseParams()
	params.EC = true
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 16 * 4096}
	r := testReceiver(d.epB, flow, params.withDefaults())

	blk := &r.blocks[0]
	blk.got = 1
	r.set(0)
	blk.nacks = maxBlockNacks - 1
	r.onBlockTimeout(0) // sends the final NACK of the budget
	if blk.nacks != maxBlockNacks || d.epB.RecvStats().NacksSent != 1 {
		t.Fatalf("budget accounting wrong: nacks=%d sent=%d", blk.nacks, d.epB.RecvStats().NacksSent)
	}
	if blk.timer.Pending() {
		t.Fatal("timer re-armed past NACK exhaustion")
	}
	// Further timeouts (e.g. an already-queued firing) send nothing.
	r.onBlockTimeout(0)
	if d.epB.RecvStats().NacksSent != 1 {
		t.Fatal("NACK sent past exhaustion")
	}
}

// TestBlockCompletionAfterExhaustionCancelsTimer: a block that completes
// from parity arrivals after its NACK budget is spent must cancel any armed
// timer so no stale firing outlives the block.
func TestBlockCompletionAfterExhaustionCancelsTimer(t *testing.T) {
	d := newDumbbell(45, gbps100)
	params := d.baseParams()
	params.EC = true
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 8 * 4096}
	r := testReceiver(d.epB, flow, params.withDefaults())

	blk := &r.blocks[0]
	blk.nacks = maxBlockNacks
	r.onBlockArrival(0) // the first arrival arms the timer
	if !blk.timer.Pending() {
		t.Fatal("setup: timer not armed")
	}
	// Parity-heavy completion: 6 data + 2 parity = dataCount distinct
	// arrivals decode the block under RS counting.
	for range 7 {
		r.onBlockArrival(0)
	}
	if !blk.complete {
		t.Fatal("block did not complete")
	}
	if blk.timer.Pending() {
		t.Fatal("completion left the exhausted block's timer armed")
	}
	r.onBlockTimeout(0) // stale firing is a no-op
	if d.epB.RecvStats().NacksSent != 0 {
		t.Fatal("completed block sent a NACK")
	}
}
