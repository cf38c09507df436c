package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// FuzzReceiverPacket hardens the transport demultiplexer, the receiver and
// the sender against hostile packet headers: while a legitimate EC flow runs
// over the dumbbell, arbitrary packets decoded from the fuzz input —
// out-of-range sequence numbers, block ids and subflows, unknown flow ids,
// wrong packet types for the direction, trimmed/rtx/marked flag
// combinations, duplicate data — are injected straight into the receiving
// host or, for ACKs, NACKs and CNMs, into the sending host. The transport
// must neither panic nor stall the legitimate flow. Once flow 1 completes, a
// second flow opens on the same endpoints and reuses its sender and
// receiver state while the flow-1 injections go on, now at the finished
// flow's record: both flows must complete, and flow 1's handle must read
// what it read at completion.
//
// The one fabric-provided field the decoder constrains is SentAt, which is
// clamped to the past: timestamps are stamped by the local clock on send,
// so a future SentAt cannot reach a receiver whose fabric shares that
// clock, and the echo-RTT math is allowed to rely on it. The sender trusts
// its receiver's completion claims, so an injected ACK never claims the
// flow done, nor a block decodable that the flow has.
func FuzzReceiverPacket(f *testing.F) {
	f.Add([]byte{})
	// One well-formed duplicate data packet.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01})
	// Unknown flow, wrong-direction ACK, out-of-range sequence.
	f.Add([]byte{0x41, 0xff, 0xff, 0x07, 0x01, 0x13, 0x80, 0x00, 0x22})
	// Trim/rtx/mark flag sweep on consecutive sequences.
	f.Add([]byte{0x08, 0x00, 0x01, 0x10, 0x00, 0x02, 0x18, 0x00, 0x03, 0x38, 0x00, 0x04})
	// An ACK at the sender for seq 80, one past the flow's 80-entry schedule.
	f.Add([]byte{0x06, 0x00, 0x50, 0xff, 0xff})
	// Four unknown-flow packets carry the clock past flow 1's completion;
	// then data for flow 1 at seq 256, beyond the range its record answers.
	f.Add([]byte{0x7c, 0, 0, 0, 0, 0x7c, 0, 0, 0, 0, 0x7c, 0, 0, 0, 0, 0x7c, 0, 0, 0, 0, 0x30, 0x01, 0x00, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("injection script longer than the budget")
		}
		d := newDumbbell(11, gbps100)
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 1 << 18, Start: 0}
		params := d.baseParams()
		params.EC = true
		var (
			final struct {
				stats    ConnStats
				fct      eventq.Time
				cwnd     float64
				inFlight int64
			}
			second *Conn
			reused bool
		)
		conn := MustStart(d.epA, d.epB, flow, params,
			&FixedWindow{Window: 16 * 4160}, &FixedEntropy{}, func(c *Conn) {
				final.stats, final.fct, final.cwnd, final.inFlight = c.Stats(), c.FCT(), c.Cwnd(), c.InFlight()
				// Open the second flow once flow 1's sender is back on the
				// free list, right after this callback returns.
				old := c.s
				d.net.Sched.Schedule(d.net.Now(), func() {
					second = MustStart(d.epA, d.epB, &Flow{ID: 2, Src: d.a, Dst: d.b, Size: 1 << 16, Start: d.net.Now()},
						params, &FixedWindow{Window: 16 * 4160}, &FixedEntropy{}, nil)
					reused = second.s == old
				})
			})
		nBlocks := conn.s.sched.nBlocks

		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		// Injections are spread over the flow's lifetime so they interleave
		// with every sender and receiver state: ramp-up, steady state,
		// completion.
		at := eventq.Time(0)
		for pos < len(data) {
			ctl := next()
			at += eventq.Time(ctl) * eventq.Microsecond / 4
			seq := int64(next())<<8 | int64(next())
			if ctl&0x80 != 0 {
				seq = -seq // exercise the negative range check
			}
			injectAt, injCtl := at, ctl
			injSeq := seq
			// Hostile block identity (signed, so negatives and huge ids are
			// both reachable) for the EC paths at both ends.
			injBlock, injIdx := int32(int8(next())), int16(int8(next()))
			d.net.Sched.Schedule(injectAt, func() {
				p := d.net.AllocPacket()
				switch injCtl & 0x03 {
				case 0, 1:
					p.Type = netsim.Data
				case 2:
					p.Type = netsim.Ack
				default:
					p.Type = netsim.Nack
					if injCtl&0x08 != 0 { // the trimmed bit means nothing to a NACK
						p.Type = netsim.Cnm
					}
				}
				p.Flow = netsim.FlowID(1 + int(injCtl>>6)&0x01*41) // flow 1 or unknown 42
				p.Src = d.a.ID()
				p.Dst = d.b.ID()
				p.Seq = injSeq
				p.AckSeq = injSeq
				p.Size = 64 + int(injCtl)*16
				p.Trimmed = injCtl&0x08 != 0
				p.IsRtx = injCtl&0x10 != 0
				p.ECNMarked = injCtl&0x20 != 0
				p.Subflow = int8(injCtl >> 4)
				p.Block = injBlock
				p.BlockIdx = injIdx
				p.IsParity = injCtl&0x04 != 0
				p.AckBlock = -1
				p.SentAt = d.net.Now() - eventq.Time(injCtl)*eventq.Microsecond
				if p.SentAt < 0 {
					p.SentAt = 0
				}
				// The parity bit means nothing to a control packet either: it
				// turns one around to the sender, echoing the hostile header.
				if p.Type == netsim.Data || !p.IsParity {
					d.b.HandlePacket(p) // control packets here: wrong direction
					return
				}
				p.Src, p.Dst = d.b.ID(), d.a.ID()
				p.EchoSentAt = p.SentAt
				p.EchoTrimmed = p.Trimmed
				p.EchoRtx = p.IsRtx
				p.EchoMarked = p.ECNMarked
				p.AckBlock = injBlock
				p.AckBlockOK = int64(injBlock) >= nBlocks
				p.NackBlock = injBlock
				p.Missing = append(p.Missing[:0], injIdx)
				p.Feedback = float64(injIdx)
				d.a.HandlePacket(p)
			})
		}

		d.net.Sched.RunUntil(eventq.Second)
		if !conn.Completed() {
			t.Fatal("legitimate flow stalled by injected packets")
		}
		if second == nil || !second.Completed() || !reused {
			t.Fatal("the second flow, on flow 1's recycled state, did not complete")
		}
		if conn.Stats() != final.stats || conn.FCT() != final.fct || conn.Cwnd() != final.cwnd || conn.InFlight() != final.inFlight {
			t.Fatalf("flow 1's handle changed after completion: %+v fct=%v", conn.Stats(), conn.FCT())
		}
		if d.epB.Receiver(1) != nil || d.epB.finished(1).n == 0 {
			t.Fatal("flow 1's receiver still registered, or its record missing")
		}
	})
}
