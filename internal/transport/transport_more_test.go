package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

func TestBlockNackBackoffAndCap(t *testing.T) {
	// Black-hole the four data packets of block 0 (parity still arrives
	// and arms the block timer): the receiver must re-NACK with backoff
	// but stop at maxBlockNacks, leaving recovery to the sender's RTO.
	d := newDumbbell(20, gbps100)
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		return p.Type == netsim.Data && p.Block == 0 && !p.IsParity
	}})
	params := d.baseParams()
	params.EC = ECConfig{Data: 4, Parity: 2, BlockTimeout: 30 * eventq.Microsecond}
	params.MinRTO = eventq.Second // keep the sender quiet
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 12 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)
	})
	d.net.Sched.RunUntil(200 * eventq.Millisecond)

	rcv := d.epB.Receiver(1)
	if rcv.NacksSent == 0 {
		t.Fatal("no NACKs for a black-holed block")
	}
	if rcv.NacksSent > maxBlockNacks {
		t.Fatalf("NACKs %d exceed cap %d", rcv.NacksSent, maxBlockNacks)
	}
	if conn.Completed() {
		t.Fatal("flow completed despite black-holed block and muted RTO")
	}
}

func TestReceiverCompleteAtAccessors(t *testing.T) {
	d := newDumbbell(21, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4 * 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	rcv := d.epB.Receiver(1)
	if !rcv.Complete() {
		t.Fatal("receiver not complete")
	}
	if rcv.CompleteAt() <= 0 || rcv.CompleteAt() > conn.FCT() {
		t.Fatalf("CompleteAt %v vs FCT %v", rcv.CompleteAt(), conn.FCT())
	}
}

func TestEndpointAccessors(t *testing.T) {
	d := newDumbbell(22, gbps100)
	if d.epA.Host() != d.a {
		t.Fatal("Host accessor wrong")
	}
	if d.epA.Sender(99) != nil || d.epB.Receiver(99) != nil {
		t.Fatal("unknown flow lookups must return nil")
	}
	// A live flow is found on both sides.
	flow := &Flow{ID: 7, Src: d.a, Dst: d.b, Size: 64 * 4096}
	conn := MustStart(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{}, nil)
	if d.epA.Sender(7) != conn {
		t.Fatal("Sender lookup wrong")
	}
	if d.epB.Receiver(7) == nil {
		t.Fatal("Receiver lookup wrong")
	}
	// Completion deregisters the sender; the handle and the receiver stay.
	d.net.Sched.RunUntil(10 * eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow incomplete")
	}
	if d.epA.Sender(7) != nil {
		t.Fatal("completed sender still registered")
	}
	if rcv := d.epB.Receiver(7); rcv == nil || !rcv.Complete() {
		t.Fatal("completed receiver must stay registered")
	}
	if conn.Flow() != flow || conn.FCT() <= 0 || conn.Stats().PktsSent != 64 {
		t.Fatalf("result handle unreadable after completion: fct=%v stats=%+v", conn.FCT(), conn.Stats())
	}
}

func TestConnAccessors(t *testing.T) {
	d := newDumbbell(23, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 64 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{Window: 8 * 4160}, &FixedEntropy{}, nil)
	})
	d.net.Sched.RunUntil(50 * eventq.Microsecond)
	if conn.Flow() != flow {
		t.Fatal("Flow accessor wrong")
	}
	if conn.MTUWire() != 4096+HeaderSize {
		t.Fatalf("MTUWire = %d", conn.MTUWire())
	}
	if conn.TotalPkts() != 64 {
		t.Fatalf("TotalPkts = %d", conn.TotalPkts())
	}
	if conn.SRTT() <= 0 {
		t.Fatal("no SRTT after traffic")
	}
	if conn.InFlight() < 0 || conn.InFlight() > 8*4160 {
		t.Fatalf("InFlight = %d", conn.InFlight())
	}
	if conn.Params().MTU != 4096 {
		t.Fatal("Params accessor wrong")
	}
	d.net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow incomplete")
	}
}

func TestSetCwndClampsToOnePacket(t *testing.T) {
	d := newDumbbell(24, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{})
	conn.SetCwnd(-5)
	if conn.Cwnd() != float64(conn.MTUWire()) {
		t.Fatalf("cwnd clamped to %v", conn.Cwnd())
	}
	conn.SetPacingRate(-1)
	if conn.PacingRate() != 0 {
		t.Fatalf("negative pacing accepted: %v", conn.PacingRate())
	}
}

func TestFixedWindowDefault(t *testing.T) {
	d := newDumbbell(25, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{})
	if conn.Cwnd() != 16*float64(conn.MTUWire()) {
		t.Fatalf("FixedWindow default = %v", conn.Cwnd())
	}
}

func TestFixedEntropyDrawsNonZero(t *testing.T) {
	d := newDumbbell(26, gbps100)
	fe := &FixedEntropy{}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4096}
	d.run(flow, d.baseParams(), &FixedWindow{}, fe)
	if fe.Entropy == 0 {
		t.Fatal("FixedEntropy did not draw an entropy")
	}
}

func TestECWholeScheduleAccounting(t *testing.T) {
	// The schedule's wire bytes must equal payload + parity + headers.
	p := Params{MTU: 4096, EC: ECConfig{Data: 8, Parity: 2, BlockTimeout: eventq.Millisecond}}.withDefaults()
	size := int64(80 * 4096) // 10 full blocks
	descs, blocks := buildSchedule(size, p)
	if len(blocks) != 10 || len(descs) != 100 {
		t.Fatalf("schedule %d descs %d blocks", len(descs), len(blocks))
	}
	var wire, payload int64
	for _, d := range descs {
		wire += int64(d.wire)
		payload += int64(d.payload)
	}
	if payload != size {
		t.Fatalf("payload sum %d", payload)
	}
	wantWire := size + 20*4096 + 100*HeaderSize // data + parity payloads + headers
	if wire != wantWire {
		t.Fatalf("wire sum %d, want %d", wire, wantWire)
	}
}

func TestFlowDoneOnEveryAckAfterCompletion(t *testing.T) {
	// After the receiver completes, every subsequent ACK must carry
	// FlowDone (the lost-final-ack insurance).
	d := newDumbbell(27, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 2 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)
	})
	d.net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow incomplete")
	}
	// Replay a duplicate data packet; the ACK must say FlowDone.
	var done bool
	d.a.SetHandler(func(p *netsim.Packet) {
		if p.Type == netsim.Ack && p.FlowDone {
			done = true
		}
		d.epA.Handle(p)
	})
	d.a.Send(&netsim.Packet{
		Type: netsim.Data, Flow: 1, Src: d.a.ID(), Dst: d.b.ID(),
		Size: 4160, Seq: 0, SentAt: d.net.Now(), Block: -1, BlockIdx: -1,
	})
	d.net.Sched.Run()
	if !done {
		t.Fatal("post-completion ACK lacked FlowDone")
	}
}
