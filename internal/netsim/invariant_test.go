package netsim

import (
	"strings"
	"testing"

	"uno/internal/eventq"
	"uno/internal/rng"
)

// dstPortRouter routes by destination node id (the test fabric below has
// one switch port per host).
type dstPortRouter map[NodeID]int

func (r dstPortRouter) Route(sw *Switch, p *Packet) int {
	idx, ok := r[p.Dst]
	if !ok {
		return -1
	}
	return idx
}

// invariantScenario drives request/reply traffic through a two-host star
// with a narrow bottleneck (forcing tail drops and deep queues), pooled
// packets throughout, and an InvariantChecker attached. defect, when
// non-nil, switches on one of the Network's seeded defects. It returns the
// checker after the run for the caller to judge.
func invariantScenario(t *testing.T, cfg PortConfig, withLoss bool, defect func(*Network)) *InvariantChecker {
	t.Helper()
	net := New(7)
	if defect != nil {
		defect(net)
	}

	sw := NewSwitch(net, "sw", nil)
	a := NewHost(net, "a", 0)
	b := NewHost(net, "b", 0)
	a.AttachNIC(sw, 100e9, eventq.Microsecond)
	b.AttachNIC(sw, 100e9, eventq.Microsecond)
	pa, _ := sw.AddPort(a, 100e9, eventq.Microsecond, PortConfig{QueueCap: 1 << 20, ControlBypass: true})
	pb, _ := sw.AddPort(b, 1e9, eventq.Microsecond, cfg)
	sw.SetRouter(dstPortRouter{a.ID(): pa, b.ID(): pb})
	if withLoss {
		sw.Port(pb).Link().SetLoss(&UniformLossForTest{P: 0.05, Rand: rng.New(99)})
	}

	ic := AttachInvariants(net)

	// b acknowledges every data packet with a pooled reply, recycling
	// packets at a high rate.
	b.SetHandler(func(p *Packet) {
		if p.Type != Data {
			return
		}
		ack := net.AllocPacket()
		ack.Type = Ack
		ack.Flow = p.Flow
		ack.Src = b.ID()
		ack.Dst = a.ID()
		ack.Size = AckSize
		ack.AckSeq = p.Seq
		b.Send(ack)
	})
	a.SetHandler(func(*Packet) {})

	// Three bursts of back-to-back sends overrun the 1 Gb/s bottleneck.
	for burst := 0; burst < 3; burst++ {
		burst := burst
		net.Sched.Schedule(eventq.Time(burst)*100*eventq.Microsecond, func() {
			for i := 0; i < 120; i++ {
				p := net.AllocPacket()
				p.Type = Data
				p.Flow = FlowID(burst + 1)
				p.Src = a.ID()
				p.Dst = b.ID()
				p.Size = 4096
				p.Seq = int64(i)
				p.ECNCapable = true
				a.Send(p)
			}
		})
	}
	net.Sched.Run()
	return ic
}

// invariantConfigs is the port-feature matrix the clean-run test sweeps:
// every checker branch (RED, phantom, QCN Cnm injection, trimming) sees
// traffic.
func invariantConfigs() map[string]PortConfig {
	base := PortConfig{QueueCap: 1 << 16}
	red := base
	red.MarkMin, red.MarkMax = 1<<14, 3<<14
	phantom := base
	phantom.Phantom = NewPhantomQueue(9e8, 1<<16, 1<<13, 1<<15)
	// QCN samples every 32nd data packet above a fifth of the queue: a
	// 1 MiB queue takes two bursts and samples them several times.
	qcn := base
	qcn.QueueCap, qcn.QCN = 1<<20, true
	trim := red
	trim.Trim, trim.ControlBypass = true, true
	return map[string]PortConfig{
		"fifo": base, "red": red, "phantom": phantom, "qcn": qcn, "trim": trim,
	}
}

// TestInvariantCleanRuns: a healthy simulator must produce zero violations
// across the full port-feature matrix and stochastic loss.
func TestInvariantCleanRuns(t *testing.T) {
	for name := range invariantConfigs() {
		for _, withLoss := range []bool{false, true} {
			// A fresh config per run: PortConfig carries pointer state
			// (the phantom queue's drain clock), and the checker itself
			// flags cross-network reuse.
			ic := invariantScenario(t, invariantConfigs()[name], withLoss, nil)
			if vs := ic.Check(); len(vs) != 0 {
				t.Errorf("%s loss=%v: %d violations, first: %v",
					name, withLoss, len(vs), vs[0])
			}
			if ic.events == 0 {
				t.Fatalf("%s: checker observed no events", name)
			}
		}
	}
}

// TestInvariantMutationSkippedReset is the layer's load-bearing proof: with
// the seeded defect enabled (FreePacket skips the recycle reset), the
// checker must fail loudly. If this test ever passes with zero violations,
// the invariant suite has gone soft.
func TestInvariantMutationSkippedReset(t *testing.T) {
	ic := invariantScenario(t, invariantConfigs()["fifo"], false, func(n *Network) { n.skipRecycleReset = true })
	vs := ic.Check()
	if len(vs) == 0 {
		t.Fatal("skipped recycle reset produced zero violations: the invariant layer is not load-bearing")
	}
	found := false
	for _, v := range vs {
		if v.Check == "pool" && strings.Contains(v.Msg, "not fully reset") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no pool-reset violation among %d recorded; first: %v", len(vs), vs[0])
	}
}

// TestInvariantMutationStuckBusyUntil is the same proof for the transmit
// hand-off: a port that forgets to advance busyUntil never queues and puts
// back-to-back packets on the wire at once. Nothing else notices — every
// packet is still delivered exactly once — so the wire-exclusivity rule must.
func TestInvariantMutationStuckBusyUntil(t *testing.T) {
	ic := invariantScenario(t, invariantConfigs()["fifo"], false, func(n *Network) { n.skipBusyAdvance = true })
	found := false
	for _, v := range ic.Check() {
		if v.Check == "time" && strings.Contains(v.Msg, "serialization time") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("stuck busyUntil not flagged by the wire-exclusivity rule; got %v", ic.Violations())
	}
}

// TestInvariantDetectsStrandedQueue: a queued packet nobody will come back
// for (the transmit timer disarmed behind the port's back) must be flagged.
func TestInvariantDetectsStrandedQueue(t *testing.T) {
	net := New(1)
	sw := NewSwitch(net, "sw", dstPortRouter{})
	h := NewHost(net, "h", 0)
	idx, _ := sw.AddPort(h, 1e9, eventq.Microsecond, PortConfig{QueueCap: 1 << 20})
	ic := AttachInvariants(net)
	port := sw.Port(idx)
	for i := 0; i < 3; i++ {
		port.Enqueue(&Packet{Type: Data, Dst: h.ID(), Size: 4096})
	}
	// Enqueue bypassed Host.Send, so conservation complains throughout;
	// only the queue check is on trial here.
	stranded := func() bool {
		for _, v := range ic.Check() {
			if v.Check == "queue" && strings.Contains(v.Msg, "packets queued") {
				return true
			}
		}
		return false
	}
	if stranded() {
		t.Fatalf("healthy backlog flagged: %v", ic.Violations())
	}
	port.busy = false
	port.txTimer.Cancel()
	if !stranded() {
		t.Fatalf("stranded queue not flagged; got %v", ic.Violations())
	}
}

// TestInvariantDetectsDoubleFree: freeing a packet twice is silently
// ignored by FreePacket but must be flagged by the checker.
func TestInvariantDetectsDoubleFree(t *testing.T) {
	net := New(1)
	ic := AttachInvariants(net)
	p := net.AllocPacket()
	net.FreePacket(p)
	net.FreePacket(p)
	vs := ic.Violations()
	if len(vs) != 1 || vs[0].Check != "pool" || !strings.Contains(vs[0].Msg, "double-freed") {
		t.Fatalf("double free recorded %v, want one pool/double-freed violation", vs)
	}
}

// TestInvariantDetectsUseAfterFree: a component feeding a freed packet
// back into the fabric (here: reporting a drop for it) must be flagged.
func TestInvariantDetectsUseAfterFree(t *testing.T) {
	net := New(1)
	ic := AttachInvariants(net)
	p := net.AllocPacket()
	net.FreePacket(p)
	net.Observer.PacketDropped("test", DropTail, p)
	found := false
	for _, v := range ic.Violations() {
		if v.Check == "pool" && strings.Contains(v.Msg, "freed packet observed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("use-after-free not flagged; got %v", ic.Violations())
	}
}

// TestInvariantDetectsQueueCorruption: drifting a port's incremental byte
// counter away from its queue contents must be caught by the physical
// re-count.
func TestInvariantDetectsQueueCorruption(t *testing.T) {
	net := New(1)
	sw := NewSwitch(net, "sw", dstPortRouter{})
	h := NewHost(net, "h", 0)
	idx, _ := sw.AddPort(h, 1e9, eventq.Microsecond, PortConfig{QueueCap: 1 << 20})
	ic := AttachInvariants(net)
	for i := 0; i < 4; i++ {
		sw.Port(idx).Enqueue(&Packet{Type: Data, Dst: h.ID(), Size: 4096})
	}
	sw.Port(idx).queuedBytes++ // the seeded drift
	found := false
	for _, v := range ic.Check() {
		if v.Check == "queue" && strings.Contains(v.Msg, "recomputed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("queue-byte drift not flagged; got %v", ic.Check())
	}
}

// TestInvariantChainsNext: events must keep flowing to the wrapped
// observer so a digest can coexist with the checker.
func TestInvariantChainsNext(t *testing.T) {
	net := New(3)
	counter := NewCountingObserver()
	net.Observer = counter
	ic := AttachInvariants(net)
	sw := NewSwitch(net, "sw", dstPortRouter{})
	a := NewHost(net, "a", 0)
	b := NewHost(net, "b", 0)
	a.AttachNIC(sw, 100e9, eventq.Microsecond)
	pb, _ := sw.AddPort(b, 100e9, eventq.Microsecond, PortConfig{QueueCap: 1 << 20})
	sw.SetRouter(dstPortRouter{b.ID(): pb})
	b.SetHandler(func(*Packet) {})
	p := net.AllocPacket()
	p.Type = Data
	p.Src = a.ID()
	p.Dst = b.ID()
	p.Size = 4096
	a.Send(p)
	net.Sched.Run()
	if counter.Sent != 1 || counter.Delivered == 0 {
		t.Fatalf("chained observer missed events: sent=%d delivered=%d", counter.Sent, counter.Delivered)
	}
	if vs := ic.Check(); len(vs) != 0 {
		t.Fatalf("clean chained run produced violations: %v", vs)
	}
}
