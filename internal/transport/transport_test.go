package transport

import (
	"math"
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// mapRouter routes by destination node id.
type mapRouter map[netsim.NodeID]int

func (m mapRouter) Route(sw *netsim.Switch, p *netsim.Packet) int {
	if port, ok := m[p.Dst]; ok {
		return port
	}
	return -1
}

// dumbbell is hostA — s1 — s2 — hostB with per-segment bandwidths.
type dumbbell struct {
	net    *netsim.Network
	a, b   *netsim.Host
	s1, s2 *netsim.Switch
	epA    *Endpoint
	epB    *Endpoint
	// mid is the s1→s2 (bottleneck) link.
	mid *netsim.Link
	// back is the s2→s1 reverse link carrying ACKs.
	back *netsim.Link
}

const (
	gbps100 = int64(100e9)
	linkDly = 1 * eventq.Microsecond
)

func testPort() netsim.PortConfig {
	return netsim.PortConfig{
		QueueCap: 1 << 20, MarkMin: 1 << 18, MarkMax: 3 << 18, ControlBypass: true,
	}
}

func newDumbbell(seed uint64, midBps int64) *dumbbell {
	net := netsim.New(seed)
	d := &dumbbell{net: net}
	d.s1 = netsim.NewSwitch(net, "s1", nil)
	d.s2 = netsim.NewSwitch(net, "s2", nil)
	d.a = netsim.NewHost(net, "a", 0)
	d.b = netsim.NewHost(net, "b", 0)
	d.a.AttachNIC(d.s1, gbps100, linkDly)
	d.b.AttachNIC(d.s2, gbps100, linkDly)

	_, d.mid = d.s1.AddPort(d.s2, midBps, linkDly, testPort()) // port 0
	d.s1.AddPort(d.a, gbps100, linkDly, testPort())            // port 1
	d.s2.AddPort(d.b, gbps100, linkDly, testPort())            // port 0
	var back *netsim.Link
	_, back = d.s2.AddPort(d.s1, gbps100, linkDly, testPort()) // port 1
	d.back = back

	r1 := mapRouter{d.a.ID(): 1, d.b.ID(): 0}
	r2 := mapRouter{d.b.ID(): 0, d.a.ID(): 1}
	d.s1.SetRouter(r1)
	d.s2.SetRouter(r2)

	d.epA = NewEndpoint(d.a)
	d.epB = NewEndpoint(d.b)
	return d
}

func (d *dumbbell) baseParams() Params {
	return Params{
		MTU:     4096,
		BaseRTT: 10 * eventq.Microsecond,
		MinRTO:  100 * eventq.Microsecond,
	}
}

func (d *dumbbell) run(flow *Flow, params Params, cc CongestionControl, lb PathSelector) *Conn {
	var conn *Conn
	d.net.Sched.Schedule(flow.Start, func() {
		conn = MustStart(d.epA, d.epB, flow, params, cc, lb, nil)
	})
	d.net.Sched.RunUntil(10 * eventq.Second)
	return conn
}

func TestBuildScheduleNoEC(t *testing.T) {
	p := Params{MTU: 1000}.withDefaults()
	descs, blocks := buildSchedule(2500, p)
	if blocks != nil {
		t.Fatal("blocks without EC")
	}
	if len(descs) != 3 {
		t.Fatalf("packets = %d, want 3", len(descs))
	}
	total := 0
	for _, d := range descs {
		total += d.payload
		if d.wire != d.payload+HeaderSize {
			t.Fatal("wire size wrong")
		}
		if d.block != -1 {
			t.Fatal("block set without EC")
		}
	}
	if total != 2500 {
		t.Fatalf("payload sum = %d", total)
	}
	if descs[2].payload != 500 {
		t.Fatalf("last payload = %d", descs[2].payload)
	}
}

func TestBuildScheduleTinyFlow(t *testing.T) {
	p := Params{MTU: 4096}.withDefaults()
	descs, _ := buildSchedule(1, p)
	if len(descs) != 1 || descs[0].payload != 1 {
		t.Fatalf("tiny flow schedule wrong: %+v", descs)
	}
	descs, _ = buildSchedule(0, p)
	if len(descs) != 1 {
		t.Fatal("zero-size flow must still send one packet")
	}
}

func TestBuildScheduleEC(t *testing.T) {
	p := Params{MTU: 1000, EC: ECConfig{Data: 4, Parity: 2, BlockTimeout: eventq.Millisecond}}.withDefaults()
	// 10 data packets → blocks of 4+2, 4+2, 2+2.
	descs, blocks := buildSchedule(10000, p)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
	if len(descs) != 10+3*2 {
		t.Fatalf("schedule length = %d, want 16", len(descs))
	}
	if blocks[2].dataCount != 2 || blocks[2].count != 4 {
		t.Fatalf("last block = %+v", blocks[2])
	}
	// Parity packets have zero payload but full wire size.
	parity := 0
	payload := 0
	for _, d := range descs {
		payload += d.payload
		if d.parity {
			parity++
			if d.payload != 0 || d.wire != 1000+HeaderSize {
				t.Fatalf("parity desc wrong: %+v", d)
			}
		}
	}
	if parity != 6 || payload != 10000 {
		t.Fatalf("parity=%d payload=%d", parity, payload)
	}
	// Block boundaries: every desc's block matches its position.
	for b, blk := range blocks {
		for i := int64(0); i < int64(blk.count); i++ {
			d := descs[blk.start+i]
			if d.block != int32(b) || d.blockIdx != int16(i) {
				t.Fatalf("desc at block %d idx %d mislabeled: %+v", b, i, d)
			}
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.MTU != 4096 || p.DupAckThresh != 3 || p.MinRTO <= 0 || p.MaxRTO <= p.MinRTO {
		t.Fatalf("defaults wrong: %+v", p)
	}
	p = Params{EC: ECConfig{Data: 8, Parity: 2}}.withDefaults()
	if p.EC.BlockTimeout <= 0 {
		t.Fatal("EC block timeout not defaulted")
	}
}

func TestSingleFlowFCTMatchesAnalytic(t *testing.T) {
	d := newDumbbell(1, gbps100)
	const size = 16 * 4096
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: size}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})

	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// Analytic: 3 hops of (4096+64)B data, pipeline of 16 packets, then
	// the final ACK back over 3 hops.
	serData := netsim.SerializationTime(4096+HeaderSize, gbps100)
	serAck := netsim.SerializationTime(netsim.AckSize, gbps100)
	want := 3*(serData+linkDly) + 15*serData + 3*(serAck+linkDly)
	if got := conn.FCT(); got != want {
		t.Fatalf("FCT = %v, want %v", got, want)
	}
	st := conn.Stats()
	if st.PktsRetrans != 0 || st.Timeouts != 0 {
		t.Fatalf("clean run had retransmissions: %+v", st)
	}
}

func TestWindowLimitedThroughput(t *testing.T) {
	// Window of 4 packets over a 200 µs RTT pipe ≫ window: throughput must
	// be ≈ window/RTT, far below line rate.
	net := netsim.New(2)
	s1 := netsim.NewSwitch(net, "s1", nil)
	s2 := netsim.NewSwitch(net, "s2", nil)
	a := netsim.NewHost(net, "a", 0)
	b := netsim.NewHost(net, "b", 0)
	bigDelay := 50 * eventq.Microsecond
	a.AttachNIC(s1, gbps100, bigDelay)
	b.AttachNIC(s2, gbps100, bigDelay)
	s1.AddPort(s2, gbps100, bigDelay, testPort())
	s1.AddPort(a, gbps100, bigDelay, testPort())
	s2.AddPort(b, gbps100, bigDelay, testPort())
	s2.AddPort(s1, gbps100, bigDelay, testPort())
	s1.SetRouter(mapRouter{a.ID(): 1, b.ID(): 0})
	s2.SetRouter(mapRouter{b.ID(): 0, a.ID(): 1})
	epA, epB := NewEndpoint(a), NewEndpoint(b)

	const size = 4 << 20
	flow := &Flow{ID: 1, Src: a, Dst: b, Size: size}
	params := Params{MTU: 4096, BaseRTT: 300 * eventq.Microsecond, MinRTO: 5 * eventq.Millisecond}
	window := 4.0 * 4160
	conn := MustStart(epA, epB, flow, params, &FixedWindow{Window: window}, &FixedEntropy{}, nil)
	net.Sched.RunUntil(5 * eventq.Second)

	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// RTT ≈ 6 hops of delay = 300µs (+ serialization noise).
	rtt := 300 * eventq.Microsecond
	wantRate := window / rtt.Seconds() // bytes/s
	gotRate := float64(size) / conn.FCT().Seconds()
	ratio := gotRate / wantRate
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("window-limited rate %v B/s, want ≈%v (ratio %v)", gotRate, wantRate, ratio)
	}
}

// filterLoss drops packets matching fn.
type filterLoss struct{ fn func(p *netsim.Packet) bool }

func (f filterLoss) Drop(_ eventq.Time, p *netsim.Packet) bool { return f.fn(p) }

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	d := newDumbbell(3, gbps100)
	// Drop exactly the data packet with seq 5 on its first transmission.
	dropped := false
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Data && p.Seq == 5 && !dropped {
			dropped = true
			return true
		}
		return false
	}})
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 64 * 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	st := conn.Stats()
	if st.FastRetrans != 1 {
		t.Fatalf("fast retransmits = %d, want 1 (stats %+v)", st.FastRetrans, st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("RTO fired despite fast retransmit: %+v", st)
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	d := newDumbbell(4, gbps100)
	// Drop the last data packet's first transmission: no later ACKs exist
	// to trigger fast retransmit, so only the RTO can recover.
	const n = 16
	drops := 0
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Data && p.Seq == n-1 && drops == 0 {
			drops++
			return true
		}
		return false
	}})
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: n * 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	if st := conn.Stats(); st.Timeouts == 0 || st.PktsRetrans == 0 {
		t.Fatalf("tail loss not recovered via RTO: %+v", st)
	}
}

func TestLostFinalAckProbe(t *testing.T) {
	d := newDumbbell(5, gbps100)
	// Drop the first FlowDone-bearing ACK on the reverse path.
	drops := 0
	d.back.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Ack && p.FlowDone && drops == 0 {
			drops++
			return true
		}
		return false
	}})
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 8 * 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow never completed after losing the final ACK")
	}
	if drops != 1 {
		t.Fatalf("test did not exercise the lost-ack path (drops=%d)", drops)
	}
}

func TestRandomLossAlwaysCompletes(t *testing.T) {
	for _, lossRate := range []float64{0.001, 0.01, 0.05} {
		d := newDumbbell(6, gbps100)
		r := rng.New(42)
		d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
			return r.Float64() < lossRate
		}})
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 256 * 4096}
		conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 64 * 4160}, &FixedEntropy{})
		if !conn.Completed() {
			t.Fatalf("flow did not complete at loss rate %v", lossRate)
		}
	}
}

func TestECToleratesParityLosses(t *testing.T) {
	d := newDumbbell(7, gbps100)
	// (4, 2): drop blockIdx 1 and 3 of every block — exactly the
	// tolerated budget. The flow must complete with zero retransmissions
	// and zero NACKs.
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		return p.Type == netsim.Data && (p.BlockIdx == 1 || p.BlockIdx == 3)
	}})
	params := d.baseParams()
	params.EC = ECConfig{Data: 4, Parity: 2, BlockTimeout: 50 * eventq.Microsecond}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 40 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("EC flow did not complete despite losses within budget")
	}
	st := conn.Stats()
	if st.PktsRetrans != 0 {
		t.Fatalf("EC flow retransmitted %d packets; losses were within parity budget", st.PktsRetrans)
	}
	if n := d.epB.RecvStats().NacksSent; n != 0 {
		t.Fatalf("receiver sent %d NACKs; blocks were decodable", n)
	}
}

func TestECNackRecoversExcessLoss(t *testing.T) {
	d := newDumbbell(8, gbps100)
	// (4, 2): drop three packets of block 0 on first transmission — one
	// beyond the parity budget, forcing the NACK path.
	seen := map[int64]bool{}
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Data && p.Block == 0 && p.BlockIdx <= 2 && !seen[p.Seq] {
			seen[p.Seq] = true
			return true
		}
		return false
	}})
	params := d.baseParams()
	params.EC = ECConfig{Data: 4, Parity: 2, BlockTimeout: 50 * eventq.Microsecond}
	// Disable the competing recovery paths so the NACK mechanism itself
	// must do the work.
	params.DupAckThresh = 1 << 20
	params.MinRTO = 100 * eventq.Millisecond
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 40 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("EC flow did not complete after unrecoverable block")
	}
	if d.epB.RecvStats().NacksSent == 0 {
		t.Fatal("no NACK sent for an undecodable block")
	}
	if conn.Stats().PktsRetrans == 0 {
		t.Fatal("no retransmission after NACK")
	}
}

func TestECSenderStopsAfterBlockSatisfied(t *testing.T) {
	// When the receiver confirms a block decodable, the sender must not
	// retransmit that block's stragglers even if their packets were lost.
	d := newDumbbell(9, gbps100)
	// Drop the two parity packets of every block: blocks complete on data
	// alone; parity losses must cause no recovery traffic.
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		return p.Type == netsim.Data && p.IsParity
	}})
	params := d.baseParams()
	params.EC = ECConfig{Data: 4, Parity: 2, BlockTimeout: 50 * eventq.Microsecond}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 32 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	if st := conn.Stats(); st.PktsRetrans != 0 || st.Timeouts != 0 {
		t.Fatalf("recovery traffic for satisfied blocks: %+v", st)
	}
}

func TestDuplicateDeliveryCounted(t *testing.T) {
	d := newDumbbell(10, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)
	})
	// Inject a duplicate of seq 0 well after delivery.
	d.net.Sched.Schedule(eventq.Millisecond, func() {
		d.a.Send(&netsim.Packet{
			Type: netsim.Data, Flow: 1, Src: d.a.ID(), Dst: d.b.ID(),
			Size: 4160, Seq: 0, SentAt: d.net.Now(), Block: -1, BlockIdx: -1,
		})
	})
	d.net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// The duplicate arrives after completion: the flow's record counts and
	// answers it.
	if st := d.epB.RecvStats(); st.LatePkts != 1 || st.DupPkts != 0 {
		t.Fatalf("late packets = %d, duplicates at the live receiver = %d, want 1 and 0", st.LatePkts, st.DupPkts)
	}
}

func TestOnDoneCallbackAndFCTPositive(t *testing.T) {
	d := newDumbbell(11, gbps100)
	done := 0
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4096, Start: eventq.Millisecond}
	var conn *Conn
	d.net.Sched.Schedule(flow.Start, func() {
		conn = MustStart(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{},
			func(c *Conn) { done++ })
	})
	d.net.Sched.RunUntil(eventq.Second)
	if done != 1 {
		t.Fatalf("onDone ran %d times", done)
	}
	if conn.FCT() <= 0 || conn.FCT() > eventq.Millisecond {
		t.Fatalf("FCT = %v", conn.FCT())
	}
}

func TestStartValidation(t *testing.T) {
	d := newDumbbell(12, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 4096}
	if _, err := Start(d.epB, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{}, nil); err == nil {
		t.Fatal("host mismatch accepted")
	}
	if _, err := Start(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{}, nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate flow id.
	if _, err := Start(d.epA, d.epB, flow, d.baseParams(), &FixedWindow{}, &FixedEntropy{}, nil); err == nil {
		t.Fatal("duplicate flow id accepted")
	}
	bad := d.baseParams()
	bad.EC = ECConfig{Data: -1, Parity: 1}
	flow2 := &Flow{ID: 2, Src: d.a, Dst: d.b, Size: 4096}
	if _, err := Start(d.epA, d.epB, flow2, bad, &FixedWindow{}, &FixedEntropy{}, nil); err == nil {
		t.Fatal("invalid EC accepted")
	}
	bad = d.baseParams()
	bad.MTU = math.MaxInt32
	if _, err := Start(d.epA, d.epB, flow2, bad, &FixedWindow{}, &FixedEntropy{}, nil); err == nil {
		t.Fatal("MTU beyond the schedule's 32-bit payload sizes accepted")
	}
}

func TestTwoFlowsBothComplete(t *testing.T) {
	d := newDumbbell(13, gbps100)
	f1 := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 1 << 20}
	f2 := &Flow{ID: 2, Src: d.a, Dst: d.b, Size: 1 << 20}
	var c1, c2 *Conn
	d.net.Sched.Schedule(0, func() {
		c1 = MustStart(d.epA, d.epB, f1, d.baseParams(), &FixedWindow{Window: 32 * 4160}, &FixedEntropy{}, nil)
		c2 = MustStart(d.epA, d.epB, f2, d.baseParams(), &FixedWindow{Window: 32 * 4160}, &FixedEntropy{}, nil)
	})
	d.net.Sched.RunUntil(eventq.Second)
	if !c1.Completed() || !c2.Completed() {
		t.Fatal("concurrent flows did not both complete")
	}
}

func TestPacedSendSpacing(t *testing.T) {
	d := newDumbbell(14, gbps100)
	// Pace at 10 Gb/s: inter-departure of 4160 B packets ≈ 3.328 µs.
	var arrivals []eventq.Time
	d.b.SetHandler(func(p *netsim.Packet) {
		if p.Type == netsim.Data {
			arrivals = append(arrivals, d.net.Now())
		}
		d.epB.handle(p)
	})
	paceCC := &pacerCC{rate: 10e9}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 32 * 4096}
	conn := d.run(flow, d.baseParams(), paceCC, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("paced flow did not complete")
	}
	want := eventq.Time(float64(4160*8) * float64(eventq.Second) / 10e9)
	for i := 2; i < len(arrivals); i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap < want*95/100 {
			t.Fatalf("paced gap %v < pacing interval %v", gap, want)
		}
	}
}

// pacerCC is a test CC that sets a huge window and a fixed pacing rate.
type pacerCC struct{ rate float64 }

func (p *pacerCC) Name() string { return "pacer" }
func (p *pacerCC) Init(c *Conn) {
	c.SetCwnd(1 << 20)
	c.SetPacingRate(p.rate)
}
func (p *pacerCC) OnAck(*Conn, AckInfo) {}
func (p *pacerCC) OnNack(*Conn)         {}
func (p *pacerCC) OnTimeout(*Conn)      {}

func TestInFlightNeverNegativeUnderChaos(t *testing.T) {
	// Random loss on both directions plus EC: in-flight accounting must
	// stay consistent and the flow must finish.
	d := newDumbbell(15, gbps100)
	r := rng.New(99)
	loss := filterLoss{fn: func(p *netsim.Packet) bool { return r.Float64() < 0.03 }}
	d.mid.SetLoss(loss)
	d.back.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool { return r.Float64() < 0.03 }})
	params := d.baseParams()
	params.EC = ECConfig{Data: 8, Parity: 2, BlockTimeout: 50 * eventq.Microsecond}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 300 * 4096}
	var conn *Conn
	d.net.Sched.Schedule(0, func() {
		conn = MustStart(d.epA, d.epB, flow, params, &FixedWindow{Window: 64 * 4160}, &FixedEntropy{}, nil)
	})
	for i := 0; i < 20000; i++ {
		if !d.net.Sched.Step() {
			break
		}
		if conn != nil && conn.InFlight() < 0 {
			t.Fatal("in-flight bytes went negative")
		}
	}
	d.net.Sched.RunUntil(10 * eventq.Second)
	if !conn.Completed() {
		t.Fatal("chaos flow did not complete")
	}
}
