package core

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/transport"
)

func parallelFlow(t *testing.T, p *simtest.Parallel, id int64, size int64,
	params transport.Params, cc transport.CongestionControl, lb transport.PathSelector) *transport.Conn {
	t.Helper()
	flow := &transport.Flow{
		ID: netsim.FlowID(id), Src: p.A, Dst: p.B, Size: size, Start: p.Net.Now(),
	}
	conn, err := transport.Start(p.EpA, p.EpB, flow, params, cc, lb, nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestUnoLBRoundRobinAssignment(t *testing.T) {
	p := simtest.NewParallel(1, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	// Wrap the receive handler with a tap that records each data packet's
	// subflow before forwarding it to the endpoint.
	var assigned []int8
	p.B.SetHandler(func(pkt *netsim.Packet) {
		if pkt.Type == netsim.Data {
			assigned = append(assigned, pkt.Subflow)
		}
		p.EpB.Handle(pkt)
	})
	params := transport.Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond, DupAckThresh: 64}
	const pkts = 2*subflows + 4
	conn := parallelFlow(t, p, 1, pkts*4096, params, &transport.FixedWindow{Window: 1 << 20}, lb)
	p.Net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	if len(assigned) < pkts {
		t.Fatalf("observed %d data packets", len(assigned))
	}
	for i := 0; i < pkts; i++ {
		if assigned[i] != int8(i%subflows) {
			t.Fatalf("packet %d on subflow %d, want %d (round robin)", i, assigned[i], i%subflows)
		}
	}
}

func TestUnoLBSpreadsBlockAcrossPaths(t *testing.T) {
	p := simtest.NewParallel(2, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	params := transport.Params{
		MTU: 4096, BaseRTT: 10 * eventq.Microsecond, DupAckThresh: 64, EC: true,
	}
	conn := parallelFlow(t, p, 1, 8*4096, params, &transport.FixedWindow{Window: 1 << 20}, lb)
	p.Net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// One block of 10 packets over 8 subflows. The 8 random entropies
	// hash onto 8 paths with birthday collisions (≈5.2 distinct paths in
	// expectation), so require at least 4 — single-path ECMP would use 1.
	used := 0
	for _, l := range p.Paths {
		if l.Stats().Delivered > 0 {
			used++
		}
	}
	if used < 4 {
		t.Fatalf("block spread over %d/8 paths", used)
	}
}

func TestUnoLBRerouteRateLimited(t *testing.T) {
	p := simtest.NewParallel(3, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	params := transport.Params{MTU: 4096, BaseRTT: 100 * eventq.Microsecond}
	conn := parallelFlow(t, p, 1, 4096, params, &transport.FixedWindow{Window: 1 << 20}, lb)
	p.Net.Sched.RunUntil(eventq.Second)

	// Two NACK signals back-to-back: only the first may reroute.
	lb.OnNack(conn)
	lb.OnNack(conn)
	if lb.Reroutes != 1 {
		t.Fatalf("reroutes = %d, want 1 (rate limit)", lb.Reroutes)
	}
}

func TestUnoLBRerouteUsesHealthyDonor(t *testing.T) {
	p := simtest.NewParallel(4, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	params := transport.Params{MTU: 4096, BaseRTT: 100 * eventq.Microsecond}
	conn := parallelFlow(t, p, 1, 4096, params, &transport.FixedWindow{Window: 1 << 20}, lb)
	p.Net.Sched.RunUntil(eventq.Second)

	// Mark subflow 2 as the only recently-healthy one; 0 is stalest.
	now := p.Net.Now()
	lb.OnAck(conn, transport.AckInfo{Now: now}, 2, 0)
	before := lb.Entropies()
	lb.OnNack(conn)
	after := lb.Entropies()
	// The stalest subflow adopted the healthy donor's entropy.
	changed := -1
	for i := range before {
		if before[i] != after[i] {
			changed = i
		}
	}
	if changed < 0 {
		t.Fatal("no subflow rerouted")
	}
	if after[changed] != before[2] {
		t.Fatalf("rerouted subflow %d got entropy %d, want donor's %d",
			changed, after[changed], before[2])
	}
}

func TestUnoLBRerouteFallsBackToRandom(t *testing.T) {
	// With no recently-ACKed subflow, the reroute must draw a fresh random
	// entropy rather than cloning a (stale) donor.
	p := simtest.NewParallel(6, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	params := transport.Params{MTU: 4096, BaseRTT: 50 * eventq.Microsecond}
	conn := parallelFlow(t, p, 1, 4096, params, &transport.FixedWindow{Window: 1 << 20}, lb)
	p.Net.Sched.RunUntil(eventq.Second) // flow done; all lastAck stale

	// Advance well past the freshness window.
	p.Net.Sched.RunUntil(p.Net.Now() + eventq.Second)
	before := lb.Entropies()
	lb.OnTimeout(conn)
	after := lb.Entropies()
	if lb.Reroutes != 1 {
		t.Fatalf("reroutes = %d", lb.Reroutes)
	}
	changed := -1
	for i := range before {
		if before[i] != after[i] {
			changed = i
		}
	}
	if changed < 0 {
		t.Fatal("no entropy changed")
	}
	for i, e := range before {
		if after[changed] == e && i != changed {
			t.Fatal("fallback cloned a stale subflow's entropy")
		}
	}
}

func TestUnoLBSurvivesPathFailure(t *testing.T) {
	// Fail one of 8 parallel paths mid-flow: EC + UnoLB must finish the
	// transfer and reroute away from the dead path.
	p := simtest.NewParallel(5, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	// BaseRTT puts the RTO floor at 200 µs and the NACK timer at 50 µs.
	params := transport.Params{
		MTU: 4096, BaseRTT: 50 * eventq.Microsecond, DupAckThresh: 64, EC: true,
	}
	p.Net.Sched.Schedule(5*eventq.Microsecond, func() { p.Paths[3].SetUp(false) })
	conn := parallelFlow(t, p, 1, 4<<20, params, &transport.FixedWindow{Window: 256 * 4160}, lb)
	p.Net.Sched.RunUntil(2 * eventq.Second)
	if !conn.Completed() {
		t.Fatalf("flow did not survive path failure (stats %+v)", conn.Stats())
	}
}

func TestSystemPolicies(t *testing.T) {
	sys := System{LinkBps: 100e9, IntraRTT: 14 * eventq.Microsecond}
	// Inter-DC flow gets EC and UnoLB.
	params, cc, lb := sys.Policies(true, 2*eventq.Millisecond)
	if !params.EC {
		t.Fatalf("inter-DC params missing EC: %+v", params)
	}
	if _, ok := cc.(*UnoCC); !ok {
		t.Fatalf("cc = %T", cc)
	}
	if _, ok := lb.(*UnoLB); !ok {
		t.Fatalf("lb = %T", lb)
	}
	ucc := cc.(*UnoCC)
	if ucc.Config().EpochPeriod != 14*eventq.Microsecond {
		t.Fatalf("epoch period = %v, want intra RTT", ucc.Config().EpochPeriod)
	}
	// Intra-DC flow: no EC.
	params, _, _ = sys.Policies(false, 14*eventq.Microsecond)
	if params.EC {
		t.Fatal("intra-DC flow got EC")
	}
	// ECMP variant.
	sys.UseECMP = true
	_, _, lb = sys.Policies(true, 2*eventq.Millisecond)
	if _, ok := lb.(*transport.FixedEntropy); !ok {
		t.Fatalf("ECMP variant lb = %T", lb)
	}
	// DisableEC variant.
	sys.DisableEC = true
	params, _, _ = sys.Policies(true, 2*eventq.Millisecond)
	if params.EC {
		t.Fatal("DisableEC variant still has EC")
	}
	// Per-flow epoch ablation.
	sys.PerFlowEpochs = true
	_, cc, _ = sys.Policies(true, 2*eventq.Millisecond)
	if cc.(*UnoCC).Config().EpochPeriod != 2*eventq.Millisecond {
		t.Fatal("PerFlowEpochs did not take effect")
	}
}

func TestUnoLBReroutesSubflowWithDeadAckPath(t *testing.T) {
	// A link fails in both directions. Some subflows send their data over
	// it; the victim subflow does not, but its ACKs — which return on the
	// data packets' entropy, as a real flow's reverse 5-tuple does — all
	// cross it. The sender hears nothing from the victim, which makes it as
	// stale as the subflows whose data dies, so the timeouts those cause
	// re-route it with them and the flow completes. No EC here: the sender
	// cannot lean on block-level acknowledgements. (With a random entropy
	// per ACK the victim looked healthy and kept its path, and every
	// subflow lost a quarter of its ACKs for the flow's whole life.)
	p := simtest.NewParallelDuplex(9, bw100G, 4, eventq.Microsecond)
	lb := &UnoLB{}
	// BaseRTT puts the RTO floor at 200 µs.
	params := transport.Params{
		MTU: 4096, BaseRTT: 50 * eventq.Microsecond, DupAckThresh: 64,
	}
	conn := parallelFlow(t, p, 1, 4<<20, params, &transport.FixedWindow{Window: 256 * 4160}, lb)
	before := lb.Entropies()
	const victim = 0
	victimOut, dead := p.PathsOf(before[victim])
	dataOnDead := 0
	for _, e := range before {
		if out, _ := p.PathsOf(e); out == dead {
			dataOnDead++
		}
	}
	if victimOut == dead || dataOnDead == 0 {
		t.Fatalf("seed gives the wrong scenario (victim's data on the dead link: %v, subflows with data on it: %d); pick another",
			victimOut == dead, dataOnDead)
	}
	p.Paths[dead].SetUp(false)
	p.Back[dead].SetUp(false)

	p.Net.Sched.RunUntil(2 * eventq.Second)
	if !conn.Completed() {
		t.Fatalf("flow did not complete (stats %+v)", conn.Stats())
	}
	if p.Back[dead].Stats().DownDrops == 0 || p.Paths[dead].Stats().DownDrops == 0 {
		t.Fatal("the failed link dropped nothing in one direction: the test shows nothing")
	}
	if after := lb.Entropies(); after[victim] == before[victim] {
		t.Fatalf("subflow %d kept entropy %#x, whose ACKs cross the failed link (%d reroutes, stats %+v)",
			victim, before[victim], lb.Reroutes, conn.Stats())
	}
}

// TestUnoLBAllocationFree: UnoLB keeps its N subflows in fixed arrays, so
// setting one up, assigning a packet and re-routing — both onto a fresh
// path and onto a healthy donor's — allocate nothing.
func TestUnoLBAllocationFree(t *testing.T) {
	p := simtest.NewParallel(10, bw100G, 8, eventq.Microsecond)
	lb := &UnoLB{}
	params := transport.Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond}
	conn := parallelFlow(t, p, 1, 4096, params, &transport.FixedWindow{Window: 1 << 20}, lb)
	p.Net.Sched.RunUntil(eventq.Millisecond)
	pkt := &netsim.Packet{}
	now := conn.Now()
	allocs := testing.AllocsPerRun(100, func() {
		lb.Init(conn)
		lb.Assign(conn, pkt)
		lb.hasRerouted = false
		lb.OnTimeout(conn) // nothing ACKed since Init: a fresh random path
		lb.OnAck(conn, transport.AckInfo{Now: now}, 3, 0)
		lb.hasRerouted = false
		lb.OnNack(conn) // subflow 3 is fresh: it donates its path
	})
	if allocs != 0 {
		t.Fatalf("Init + Assign + two re-routes allocate %v times, want 0", allocs)
	}
	if lb.Reroutes == 0 {
		t.Fatal("no re-route ran: the test measured nothing")
	}
}
