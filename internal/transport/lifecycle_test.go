package transport

import (
	"runtime"
	"testing"
	"unsafe"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// Flow-lifecycle tests: what Open builds is torn down by completion, so a
// long run of short flows holds only its live flows' state in the scheduler
// and the sender demux, and what is left of a finished flow — the Conn as a
// result handle, the registered Receiver — still behaves.

// tickCC is FixedWindow plus a periodic policy timer from Conn.NewTimer, the
// way UnoCC runs its Quick Adapt tick.
type tickCC struct {
	FixedWindow
	timer *eventq.Timer
	ticks int
}

func (c *tickCC) Init(conn *Conn) {
	c.FixedWindow.Init(conn)
	c.timer = conn.NewTimer(func() {
		c.ticks++
		c.timer.ResetAfter(eventq.Microsecond)
	})
	c.timer.ResetAfter(eventq.Microsecond)
}

// runOnePacketFlow starts a one-packet flow now and runs the simulation
// until nothing is left to do.
func runOnePacketFlow(t *testing.T, d *dumbbell, id netsim.FlowID, cc CongestionControl) *Conn {
	t.Helper()
	return runFlow(t, d, id, 1024, cc)
}

// runFlow starts a flow of size bytes now and runs the simulation until
// nothing is left to do.
func runFlow(t *testing.T, d *dumbbell, id netsim.FlowID, size int64, cc CongestionControl) *Conn {
	t.Helper()
	flow := &Flow{ID: id, Src: d.a, Dst: d.b, Size: size, Start: d.net.Now()}
	conn, err := Start(d.epA, d.epB, flow, d.baseParams(), cc, &FixedEntropy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.net.Sched.Run()
	if !conn.Completed() {
		t.Fatalf("flow %d incomplete", id)
	}
	return conn
}

// TestSequentialFlowsLeaveNothingBehind: ten thousand one-packet flows, one
// after another, each with a ticking policy timer. Afterwards the scheduler
// is empty, no sender is registered, and the event slab is no larger than
// the first few flows made it.
func TestSequentialFlowsLeaveNothingBehind(t *testing.T) {
	d := newDumbbell(61, gbps100)
	sched := d.net.Sched
	var slabEarly int
	for i := 1; i <= 10000; i++ {
		cc := &tickCC{}
		runOnePacketFlow(t, d, netsim.FlowID(i), cc)
		if cc.ticks == 0 {
			t.Fatalf("flow %d: the policy timer never ticked", i)
		}
		if cc.timer.Pending() {
			t.Fatalf("flow %d: policy timer still armed after completion", i)
		}
		if i == 8 {
			slabEarly = sched.SlabEvents()
		}
	}
	if n := sched.Pending(); n != 0 {
		t.Errorf("%d events pending after every flow completed", n)
	}
	if n := len(d.epA.senders); n != 0 {
		t.Errorf("%d senders still registered", n)
	}
	if n := len(d.epB.receivers); n != 10000 {
		t.Errorf("%d receivers registered, want all 10000 (they answer late duplicates)", n)
	}
	if got := sched.SlabEvents(); got != slabEarly {
		t.Errorf("event slab grew from %d slots after 8 flows to %d after 10000", slabEarly, got)
	}
}

// TestFlowAllocationBudget pins the heap bytes one short flow costs from
// Open to completion. The budget sits a tenth above the measured 841 B (889
// under the race detector): 480 for the Conn, 176 for the Receiver, 48 for
// the Flow, and the rest the two timer handles, one packet's flag byte and
// send time, the arrival bitmap and the receiver demux entry. Before flows
// had a lifecycle (two schedule tables, Params held twice, timer closures)
// it was 1,340 B.
func TestFlowAllocationBudget(t *testing.T) {
	const flows, budget = 4000, 960
	d := newDumbbell(62, gbps100)
	for i := 1; i <= 64; i++ { // warm the packet pool and the event slab
		runOnePacketFlow(t, d, netsim.FlowID(i), &FixedWindow{})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= flows; i++ {
		runOnePacketFlow(t, d, netsim.FlowID(64+i), &FixedWindow{})
	}
	runtime.ReadMemStats(&m1)
	perFlow := float64(m1.TotalAlloc-m0.TotalAlloc) / flows
	t.Logf("%.0f B per flow", perFlow)
	if perFlow > budget {
		t.Errorf("a one-packet flow allocates %.0f B, budget %d", perFlow, budget)
	}
}

// TestScheduleEntryAllocationBudget pins the heap bytes one more schedule
// entry costs a flow: the sender's flag byte and send time (9 B) and the
// receiver's arrival bit. It is the difference between 256-entry flows and
// one-packet flows, so the per-flow structs cancel out. The sender's old
// 24-byte entry, two of whose fields nothing read, is what it replaced.
func TestScheduleEntryAllocationBudget(t *testing.T) {
	const flows, entries, budget = 400, 256, 10
	d := newDumbbell(64, gbps100)
	id := netsim.FlowID(0)
	perFlow := func(size int64) float64 {
		for range 16 { // warm the packet pool, the event slab and the fifos
			id++
			runFlow(t, d, id, size, &FixedWindow{})
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range flows {
			id++
			runFlow(t, d, id, size, &FixedWindow{})
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / flows
	}
	long, short := perFlow(entries*4096), perFlow(1024)
	perEntry := (long - short) / (entries - 1)
	t.Logf("%.0f B per %d-entry flow, %.0f B per 1-entry flow: %.2f B per entry", long, entries, short, perEntry)
	if perEntry > budget {
		t.Errorf("a schedule entry costs %.2f B, budget %d", perEntry, budget)
	}
}

// TestConnSizeClass pins the two sizes the budget above is made of: the Go
// allocator's classes go 448, 480, 512 and 176, 192, 208, so one more word in
// either struct costs every flow 32 or 16 bytes (the budget test is too
// coarse to see that; the benchmark's alloc_mb on 84 k RPCs is not).
func TestConnSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 480 {
		t.Errorf("Conn is %d bytes, over the 480-byte class", got)
	}
	if got := unsafe.Sizeof(Receiver{}); got > 176 {
		t.Errorf("Receiver is %d bytes, over the 176-byte class", got)
	}
}

// TestLatePacketsForCompletedSender: once a sender has completed and left
// the demux, an ACK, a NACK or a congestion notification addressed to it —
// through the endpoint or straight at the Conn — is dropped, and the result
// handle still reads what the flow did.
func TestLatePacketsForCompletedSender(t *testing.T) {
	d := newDumbbell(63, gbps100)
	params := d.baseParams()
	params.EC = ECConfig{Data: 4, Parity: 2, BlockTimeout: 50 * eventq.Microsecond}
	flow := &Flow{ID: 9, Src: d.a, Dst: d.b, Size: 8 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() || d.epA.Sender(9) != nil {
		t.Fatal("setup: flow must be complete and deregistered")
	}
	stats, fct := conn.Stats(), conn.FCT()

	late := func(typ netsim.PacketType) *netsim.Packet {
		p := d.net.AllocPacket()
		p.Type, p.Flow, p.Src, p.Dst, p.Size = typ, 9, d.b.ID(), d.a.ID(), netsim.AckSize
		p.AckSeq, p.AckBlock, p.AckBlockOK, p.NackBlock = 3, 0, true, 1
		p.Missing = append(p.Missing[:0], 0, 1)
		p.Subflow = -1
		return p
	}
	for _, typ := range []netsim.PacketType{netsim.Ack, netsim.Nack, netsim.Cnm} {
		d.epA.Handle(late(typ)) // no sender registered: dropped by the demux
	}
	conn.handleAck(late(netsim.Ack)) // a stale reference to the Conn: dropped by c.completed
	conn.handleNack(late(netsim.Nack))
	conn.handleCnm(late(netsim.Cnm))
	conn.SetCwnd(1 << 20) // a policy's late window update must not restart sending
	conn.SetPacingRate(1e9)
	d.net.Sched.Run()

	if conn.Stats() != stats || conn.FCT() != fct || conn.Flow() != flow {
		t.Errorf("late packets changed the result handle: %+v fct=%v", conn.Stats(), conn.FCT())
	}
	if stats.PktsSent < 12 || stats.BytesAcked == 0 || fct <= 0 {
		t.Errorf("result handle lost the flow's record: %+v fct=%v", stats, fct)
	}
	if conn.InFlight() != 0 || d.net.Sched.Pending() != 0 {
		t.Errorf("in flight %d, %d events pending", conn.InFlight(), d.net.Sched.Pending())
	}
	// The receiver is still there and still acknowledges a duplicate.
	rcv := d.epB.Receiver(9)
	dup := d.net.AllocPacket()
	dup.Type, dup.Flow, dup.Src, dup.Dst, dup.Size, dup.Seq = netsim.Data, 9, d.a.ID(), d.b.ID(), 4160, 0
	before := rcv.DupPkts
	d.epB.Handle(dup)
	d.net.Sched.Run()
	if rcv.DupPkts != before+1 {
		t.Error("completed receiver did not count and acknowledge a late duplicate")
	}
	for b := range rcv.blocks {
		if rcv.blocks[b].timer != nil {
			t.Errorf("block %d still holds its NACK timer after completion", b)
		}
	}
}
