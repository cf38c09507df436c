package transport

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// Flow-lifecycle tests: what Open builds is recycled at completion, so a
// long run of short flows holds only its live flows' state in the
// scheduler, the demux and the free lists, and what is left of a finished
// flow — the Conn as a result handle, the receiver's record — still
// behaves, whatever later flow reuses its state.

// tickCC is FixedWindow plus a periodic policy timer, a field bound through
// Conn.BindTimerArg, the way UnoCC runs its Quick Adapt tick.
type tickCC struct {
	FixedWindow
	timer eventq.Timer
	ticks int
}

func (c *tickCC) Init(conn *Conn) {
	c.FixedWindow.Init(conn)
	conn.BindTimerArg(&c.timer, tickCCTick, c)
	c.timer.ResetAfter(eventq.Microsecond)
}

func tickCCTick(a any) {
	c := a.(*tickCC)
	c.ticks++
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
// is empty, no sender or receiver is registered, every flow has its record,
// one sender and one receiver — reused by every flow — sit on the free
// lists, and the event slab is no larger than the first few flows made it.
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
		if cc.timer.Bound() {
			t.Fatalf("flow %d: policy timer still bound after completion", i)
		}
		if i == 8 {
			slabEarly = sched.SlabEvents()
		}
	}
	if n := sched.Pending(); n != 0 {
		t.Errorf("%d events pending after every flow completed", n)
	}
	if n, m := len(d.epA.senders), len(d.epB.receivers); n != 0 || m != 0 {
		t.Errorf("%d senders and %d receivers still registered", n, m)
	}
	for id := netsim.FlowID(1); id <= 10000; id++ {
		if d.epB.finished(id).n != 1 {
			t.Fatalf("flow %d left no record (they answer late duplicates)", id)
		}
	}
	if n, m := len(d.epA.flows.senders), len(d.epB.flows.receivers); n != 1 || m != 1 {
		t.Errorf("free lists hold %d senders and %d receivers, want 1 and 1", n, m)
	}
	if got := sched.SlabEvents(); got != slabEarly {
		t.Errorf("event slab grew from %d slots after 8 flows to %d after 10000", slabEarly, got)
	}
}

// TestFlowAllocationBudget pins the heap bytes one short flow costs from
// Open to completion when it follows another: the budget sits a tenth above
// the measured 224 B (240 under the race detector). That is the 128-byte
// Conn the flow keeps as its result handle, the 48-byte Flow and the two
// policies the test builds, and two slots of the finished-flow table, which
// doubles as it grows. The sender and receiver state, the timers, the
// per-packet state and the arrival bitmap are the previous flow's. When
// every flow kept its state to the end it was 841 B; before flows had a
// lifecycle (two schedule tables, Params held twice, timer closures) it was
// 1,340 B.
func TestFlowAllocationBudget(t *testing.T) {
	const flows, budget = 4000, 246
	d := newDumbbell(62, gbps100)
	for i := 1; i <= 64; i++ { // warm the packet pool, the event slab and the free lists
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

// TestECBlockAllocationFree: an erasure-coded flow that follows one of its
// size costs no heap bytes per block. A 12-block RS(8,2) flow is compared
// with a plain flow of the same 96 data packets, each after a warm-up flow
// on a dumbbell of its own: every block's NACK timer is a field of the
// recycled blocks array, bound without a closure. When each block allocated
// its Timer and a closure, that was 40 B a block, 480 B a flow; the budget
// of 8 B a block leaves room for a stray runtime allocation (one under the
// race detector measured 2.3 B a block; 0 is usual).
func TestECBlockAllocationFree(t *testing.T) {
	const flows, size, blocks = 200, 96 * 4096, 12
	perFlow := func(ec bool) float64 {
		d := newDumbbell(65, gbps100)
		params := d.baseParams()
		params.EC = ec
		run := func(id netsim.FlowID) {
			flow := &Flow{ID: id, Src: d.a, Dst: d.b, Size: size, Start: d.net.Now()}
			conn := MustStart(d.epA, d.epB, flow, params, &FixedWindow{}, &FixedEntropy{}, nil)
			d.net.Sched.Run()
			if !conn.Completed() {
				t.Fatalf("flow %d incomplete", id)
			}
		}
		for i := 1; i <= 8; i++ { // warm the pools and free lists
			run(netsim.FlowID(i))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 1; i <= flows; i++ {
			run(netsim.FlowID(8 + i))
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / flows
	}
	coded, plain := perFlow(true), perFlow(false)
	perBlock := (coded - plain) / blocks
	t.Logf("%.0f B per coded flow, %.0f B per plain flow: %.1f B per block", coded, plain, perBlock)
	if perBlock > 8 {
		t.Errorf("an EC block costs %.1f B, budget 8", perBlock)
	}
}

// TestScheduleEntryAllocationBudget pins the heap bytes one more schedule
// entry costs a live flow: the sender's flag byte and send time (9 B) and
// the receiver's arrival bit. It opens flows without running them, so none
// finishes and each takes new state, and compares 256-entry flows with
// one-packet ones, so the per-flow structs cancel out. The sender's old
// 24-byte entry, two of whose fields nothing read, is what it replaced.
func TestScheduleEntryAllocationBudget(t *testing.T) {
	const flows, entries, budget = 400, 256, 10
	perFlow := func(size int64) float64 {
		d := newDumbbell(64, gbps100)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 1; i <= flows; i++ {
			flow := &Flow{ID: netsim.FlowID(i), Src: d.a, Dst: d.b, Size: size}
			MustOpen(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{}, nil)
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

// TestConnSizeClass pins the three sizes per-flow memory is made of: the
// handle every flow keeps (its 128-byte size class), the live sender state
// (recycled, so it costs a run its peak of live flows, not every flow) and
// the record a finished receiver leaves in its shard's table.
func TestConnSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got > 128 {
		t.Errorf("Conn is %d bytes, over the 128-byte class", got)
	}
	if got := unsafe.Sizeof(sender{}); got > 352 {
		t.Errorf("sender is %d bytes, over the 352-byte class", got)
	}
	if got := unsafe.Sizeof(Receiver{}); got > 144 {
		t.Errorf("Receiver is %d bytes, over the 144-byte class", got)
	}
	if got := unsafe.Sizeof(finishedFlow{}); got > 16 {
		t.Errorf("a finished flow's record is %d bytes, over 16", got)
	}
}

// TestLatePacketsForCompletedSender: once a flow has completed and both its
// ends have left the demux, an ACK, a NACK or a congestion notification
// addressed to its sender is dropped, a late data packet is answered from
// the receiver's record with FlowDone, a policy's late window update
// changes nothing, and the result handle still reads what the flow did.
func TestLatePacketsForCompletedSender(t *testing.T) {
	d := newDumbbell(63, gbps100)
	params := d.baseParams()
	params.EC = true
	flow := &Flow{ID: 9, Src: d.a, Dst: d.b, Size: 16 * 4096} // two (8,2) blocks
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() || d.epA.Sender(9) != nil || d.epB.Receiver(9) != nil {
		t.Fatal("setup: flow must be complete and deregistered")
	}
	stats, fct, cwnd := conn.Stats(), conn.FCT(), conn.Cwnd()

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
	conn.SetCwnd(1 << 20) // a policy's late window update must not restart sending
	conn.SetPacingRate(1e9)
	d.net.Sched.Run()

	if conn.Stats() != stats || conn.FCT() != fct || conn.Flow() != flow || conn.Cwnd() != cwnd {
		t.Errorf("late packets changed the result handle: %+v fct=%v cwnd=%v", conn.Stats(), conn.FCT(), conn.Cwnd())
	}
	if stats.PktsSent < 20 || stats.BytesAcked == 0 || fct <= 0 {
		t.Errorf("result handle lost the flow's record: %+v fct=%v", stats, fct)
	}
	if conn.InFlight() != 0 || d.net.Sched.Pending() != 0 {
		t.Errorf("in flight %d, %d events pending", conn.InFlight(), d.net.Sched.Pending())
	}

	// A late duplicate is answered from the record: FlowDone, its block
	// decodable.
	var answers []netsim.Packet
	d.a.SetHandler(func(p *netsim.Packet) {
		if p.Type == netsim.Ack && p.Flow == 9 {
			answers = append(answers, *p)
		}
		d.epA.Handle(p)
	})
	lateBefore := d.epB.RecvStats().LatePkts // parity the decode did not need
	dup := d.net.AllocPacket()
	dup.Type, dup.Flow, dup.Src, dup.Dst, dup.Size, dup.Seq = netsim.Data, 9, d.a.ID(), d.b.ID(), 4160, 12
	d.epB.Handle(dup)
	d.net.Sched.Run()
	if len(answers) != 1 || !answers[0].FlowDone || answers[0].AckSeq != 12 ||
		answers[0].AckBlock != 1 || !answers[0].AckBlockOK {
		t.Errorf("late duplicate answered with %+v, want one FlowDone ACK for seq 12 reporting block 1 decodable", answers)
	}
	if n := d.epB.RecvStats().LatePkts - lateBefore; n != 1 {
		t.Errorf("%d late packets counted, want 1", n)
	}
	for _, r := range d.epB.flows.receivers {
		for _, blk := range r.blocks[:cap(r.blocks)] {
			if blk.timer.Bound() {
				t.Error("a recycled receiver still holds a block's NACK timer")
			}
		}
	}
}

// flowSnapshot is everything of one live flow that a packet could change:
// the handle's counters and window, the sender's per-packet state, the
// receiver's arrival bitmap and block state, and the receiving endpoint's
// counters of live receivers.
type flowSnapshot struct {
	stats           ConnStats
	cwnd            float64
	inFlight        int64
	state           []pktState
	sentAt          []eventq.Time
	nextNew, lowest int64
	got             []uint64
	dataGot         int64
	blocks          []blockSnapshot
	dup, trimmed    uint64
}

type blockSnapshot struct {
	got, nacks      int16
	complete, armed bool
}

func snapshotFlow(c *Conn, r *Receiver) flowSnapshot {
	f := flowSnapshot{stats: c.Stats(), cwnd: c.Cwnd(), inFlight: c.InFlight()}
	if s := c.s; s != nil {
		f.state = append([]pktState(nil), s.state...)
		f.sentAt = append([]eventq.Time(nil), s.sentAt...)
		f.nextNew, f.lowest = s.nextNew, s.lowestUnacked
	}
	if r != nil {
		f.got = append([]uint64(nil), r.got...)
		f.dataGot = r.dataGot
		for i := range r.blocks {
			b := &r.blocks[i]
			f.blocks = append(f.blocks, blockSnapshot{b.got, b.nacks, b.complete, b.timer.Pending()})
		}
		f.dup, f.trimmed = r.ep.recv.DupPkts, r.ep.recv.TrimmedPkts
	}
	return f
}

// recyclingViolations runs the recycling scenario and reports what went
// wrong. Flow A (id 1) runs alone to completion; flow B (id 2) then opens on
// the same endpoints and takes A's sender and receiver from the free lists.
// Midway through B, late data, ACKs, a NACK and a CNM for A arrive. B must
// be exactly what it is on a fresh fixture at the same instant, no late
// packet may touch it, A's late data must be answered with FlowDone, and A's
// handle must read what it read at completion. keepDemux and skipReset seed
// the two defects the rule exists for.
func recyclingViolations(keepDemux, skipReset bool) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	params := Params{MTU: 4096, BaseRTT: 25 * eventq.Microsecond, EC: true}
	const size = 24 * 4096 // three blocks of eight data and two parity packets
	startB := func(d *dumbbell) *Conn {
		flow := &Flow{ID: 2, Src: d.a, Dst: d.b, Size: size, Start: d.net.Now()}
		return MustStart(d.epA, d.epB, flow, params, &FixedWindow{Window: 4 * 4160}, &FixedEntropy{Entropy: 5}, nil)
	}
	const midB = 3 * eventq.Microsecond

	d := newDumbbell(65, gbps100)
	d.epA.flows.keepDemux, d.epA.flows.skipReset = keepDemux, skipReset
	a := MustStart(d.epA, d.epB, &Flow{ID: 1, Src: d.a, Dst: d.b, Size: size}, params,
		&FixedWindow{Window: 4 * 4160}, &FixedEntropy{Entropy: 5}, nil)
	aSender, aReceiver := a.s, d.epB.Receiver(1)
	d.net.Sched.Run()
	if !a.Completed() {
		return []string{"flow A did not complete"}
	}
	aStats, aFCT, aCwnd, aInFlight := a.Stats(), a.FCT(), a.Cwnd(), a.InFlight()

	t0 := d.net.Now()
	b := startB(d)
	bReceiver := d.epB.Receiver(2)
	if b.s != aSender || bReceiver != aReceiver {
		failf("flow B did not reuse flow A's sender and receiver")
	}
	d.net.Sched.RunUntil(t0 + midB)
	before := snapshotFlow(b, bReceiver)

	// The reference: B alone on a fresh fixture, started at the same time.
	twin := newDumbbell(65, gbps100)
	var ref *Conn
	twin.net.Sched.Schedule(t0, func() { ref = startB(twin) })
	twin.net.Sched.RunUntil(t0 + midB)
	if want := snapshotFlow(ref, twin.epB.Receiver(2)); !reflect.DeepEqual(before, want) {
		failf("recycled flow B differs from a fresh one:\n got %+v\nwant %+v", before, want)
	}

	var answers, wrongAnswers int
	d.a.SetHandler(func(p *netsim.Packet) {
		if p.Type == netsim.Ack && p.Flow == 1 {
			if p.FlowDone {
				answers++
			} else {
				wrongAnswers++
			}
		}
		d.epA.Handle(p)
	})
	inject := func(ep *Endpoint, typ netsim.PacketType, seq int64, trimmed bool) {
		p := d.net.AllocPacket()
		p.Type, p.Flow, p.Seq, p.AckSeq, p.Trimmed, p.EchoTrimmed = typ, 1, seq, seq, trimmed, trimmed
		p.Src, p.Dst, p.Size, p.SentAt = d.a.ID(), d.b.ID(), 4160, d.net.Now()
		p.AckBlock, p.AckBlockOK, p.NackBlock = 0, true, 0
		p.Missing = append(p.Missing[:0], 0, 1, 2)
		p.Subflow = -1
		ep.Handle(p)
	}
	inject(d.epB, netsim.Data, 0, false)    // duplicate: answered from A's record
	inject(d.epB, netsim.Data, 5, true)     // trimmed: answered too
	inject(d.epB, netsim.Data, 1000, false) // beyond A's schedule: dropped
	inject(d.epA, netsim.Ack, 0, false)
	inject(d.epA, netsim.Ack, 4, true)
	inject(d.epA, netsim.Nack, 0, false)
	inject(d.epA, netsim.Cnm, 0, false)
	if after := snapshotFlow(b, bReceiver); !reflect.DeepEqual(after, before) {
		failf("late packets for flow A changed flow B:\n got %+v\nwant %+v", after, before)
	}

	d.net.Sched.RunUntil(eventq.Second)
	if !b.Completed() {
		failf("flow B did not complete")
	}
	if answers != 2 || wrongAnswers != 0 {
		failf("flow A's late data drew %d FlowDone and %d other ACKs, want 2 and 0", answers, wrongAnswers)
	}
	if a.Stats() != aStats || a.FCT() != aFCT || a.Cwnd() != aCwnd || a.InFlight() != aInFlight || !a.Completed() {
		failf("flow A's handle changed after completion: %+v fct=%v", a.Stats(), a.FCT())
	}
	return bad
}

// TestRecycledFlowStateIgnoresLatePackets: a late packet for a finished
// flow reaches the flow's record, never the state a later flow reuses, and
// reuse starts from a full reset. Each seeded defect — a demux entry left
// pointing at the recycled state, state recycled without its reset — must
// be caught.
func TestRecycledFlowStateIgnoresLatePackets(t *testing.T) {
	if bad := recyclingViolations(false, false); len(bad) > 0 {
		t.Fatalf("recycling broke isolation:\n%s", strings.Join(bad, "\n"))
	}
	for _, defect := range []struct {
		name                 string
		keepDemux, skipReset bool
	}{{"demux entry kept", true, false}, {"reset skipped", false, true}} {
		if bad := recyclingViolations(defect.keepDemux, defect.skipReset); len(bad) == 0 {
			t.Errorf("seeded defect %q went unnoticed", defect.name)
		} else {
			t.Logf("seeded defect %q: %s", defect.name, bad[0])
		}
	}
}
