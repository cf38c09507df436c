package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

func TestBlockNackBackoffAndCap(t *testing.T) {
	// Black-hole the eight data packets of block 0, first transmissions
	// and RTO resends alike (parity still arrives and arms the block
	// timer): the receiver must re-NACK with backoff but stop at
	// maxBlockNacks, leaving recovery to the sender's RTO.
	d := newDumbbell(20, gbps100)
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		return p.Type == netsim.Data && p.Block == 0 && !p.IsParity
	}})
	params := d.baseParams()
	params.EC = true
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 16 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)
	})
	d.net.Sched.RunUntil(200 * eventq.Millisecond)

	nacks := d.epB.RecvStats().NacksSent
	if nacks == 0 {
		t.Fatal("no NACKs for a black-holed block")
	}
	if nacks > maxBlockNacks {
		t.Fatalf("NACKs %d exceed cap %d", nacks, maxBlockNacks)
	}
	if conn.Completed() {
		t.Fatal("flow completed despite a black-holed block")
	}
}

// TestReceiverRetiresAtCompletion: the data packet that completes the
// message is answered with FlowDone, before the sender's FCT, and the
// receiver then leaves the endpoint for the shard's free list, leaving the
// flow's record behind.
func TestReceiverRetiresAtCompletion(t *testing.T) {
	d := newDumbbell(21, gbps100)
	var doneSentAt eventq.Time = -1
	d.b.SetHandler(func(p *netsim.Packet) {
		d.epB.Handle(p)
		if doneSentAt < 0 && d.epB.Receiver(1) == nil {
			doneSentAt = d.net.Now() // the completing packet's ACK left just now
		}
	})
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4 * 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() || d.epB.Receiver(1) != nil {
		t.Fatal("flow incomplete, or its receiver still registered")
	}
	if doneSentAt <= 0 || doneSentAt > conn.FCT() {
		t.Fatalf("receiver completed at %v, FCT %v", doneSentAt, conn.FCT())
	}
	want := finishedFlow{src: d.a.ID(), dst: d.b.ID(), n: 4}
	if got := d.epB.finished(1); got != want {
		t.Fatalf("finished record %+v, want %+v", got, want)
	}
	if n := len(d.epB.flows.receivers); n != 1 {
		t.Fatalf("%d receivers on the free list, want the retired one", n)
	}
}

// TestReceiverRetiresAtLastBlockOutOfOrder: the blocks of a 3-block EC
// flow complete in the order 2, 0, 1, one of them from parity, with a
// duplicate in between. The receiver counts each block once and stays
// registered until the arrival that completes the last block retires it.
func TestReceiverRetiresAtLastBlockOutOfOrder(t *testing.T) {
	d := newDumbbell(22, gbps100)
	params := d.baseParams()
	params.EC = true
	// Three (8,2) blocks: block b is entries 10b..10b+7 (data) and 10b+8,
	// 10b+9 (parity).
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 24 * 4096}
	MustOpen(d.epA, d.epB, flow, params, &FixedWindow{}, &FixedEntropy{}, nil)
	r := d.epB.Receiver(1)
	if r == nil || len(r.blocks) != 3 {
		t.Fatal("setup: no 3-block receiver")
	}
	type step struct {
		seq  int64
		done int // complete blocks after the arrival
	}
	var steps []step
	arrive := func(done int, seqs ...int64) {
		for _, seq := range seqs {
			steps = append(steps, step{seq, done})
		}
	}
	arrive(0, 20, 21, 22, 23, 24, 25, 26) // block 2: seven data packets…
	arrive(1, 28)                         // …and a parity packet
	arrive(1, 7, 6, 5, 4, 3, 2, 1)        // block 0, data only
	arrive(2, 0)
	arrive(2, 10, 10, 11, 12, 13, 14, 15, 16) // block 1's first packet, its duplicate, six more
	arrive(3, 19)                             // block 1 from parity: the last block
	for i, st := range steps {
		p := d.net.AllocPacket()
		p.Type, p.Flow, p.Seq, p.Src, p.Dst, p.Size = netsim.Data, 1, st.seq, d.a.ID(), d.b.ID(), 4160
		d.epB.Handle(p)
		last := i == len(steps)-1
		if got := d.epB.Receiver(1) != nil; got == last {
			t.Fatalf("after seq %d (step %d): registered %v, want %v", st.seq, i, got, !last)
		}
		if !last && r.blocksDone != st.done {
			t.Fatalf("after seq %d (step %d): %d blocks done, want %d", st.seq, i, r.blocksDone, st.done)
		}
	}
	if got := d.epB.finished(1); got.n != 30 {
		t.Fatalf("finished record %+v, want 30 entries", got)
	}
	if got := d.epB.RecvStats().DupPkts; got != 1 {
		t.Fatalf("%d duplicates counted, want 1", got)
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
	// Completion deregisters both ends; the handle and the flow's record
	// stay.
	d.net.Sched.RunUntil(10 * eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow incomplete")
	}
	if d.epA.Sender(7) != nil {
		t.Fatal("completed sender still registered")
	}
	if d.epB.Receiver(7) != nil || d.epB.finished(7).n == 0 {
		t.Fatal("completed receiver still registered, or no record left")
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
	conn := MustOpen(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{}, nil)
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
	if conn.Cwnd() != 16*float64(4096+HeaderSize) {
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
	p := Params{MTU: 4096, EC: true}.withDefaults()
	size := int64(80 * 4096) // 10 full blocks
	descs, blocks := expand(p.schedule(size))
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
