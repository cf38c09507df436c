package simtest_test

// Scenario-level invariant and metamorphic property tests. The netsim
// package checks its invariant layer against hand-wired fabrics; here the
// checker rides along full transport-stack scenarios (erasure coding,
// multipath, loss), and metamorphic relations assert properties no single
// golden digest can: rescaling time must not reorder events, relabeling
// symmetric hosts must mirror per-flow behaviour exactly, and a run's
// digest must not depend on what ran before it in the same process.

import (
	"testing"

	"uno/internal/baselines"
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/simtest"
	"uno/internal/transport"
)

// assertNoViolations fails the test with every recorded violation if the
// checker's final sweep finds anything. Shared with the golden-digest
// runners, so every golden scenario is also an invariant scenario.
func assertNoViolations(t *testing.T, ic *netsim.InvariantChecker) {
	t.Helper()
	vs := ic.Check()
	for _, v := range vs {
		t.Errorf("invariant violation: %v", v)
	}
	if len(vs) == 0 && ic.Events() == 0 {
		t.Error("invariant checker observed no events")
	}
}

// TestInvariantECIncast runs the lossy incast with RS(8,2) erasure coding
// and asserts, through the checker's EC accounting, that every block either
// decodes (AckBlockOK only after enough distinct shards terminally arrived)
// or the flow never claims completion.
func TestInvariantECIncast(t *testing.T) {
	delays := []eventq.Time{
		eventq.Microsecond, 2 * eventq.Microsecond, 100 * eventq.Microsecond,
	}
	in := simtest.NewIncast(9, bw100G, delays, simtest.PortConfig())
	ic := netsim.AttachInvariants(in.Net)
	ic.ECData = 8
	ge := failure.NewTable1Loss(failure.Setup1, rng.New(77))
	ge.PGoodToBad *= 1000
	in.Bottleneck.Link().SetLoss(ge)
	var conns []*transport.Conn
	for i := range delays {
		flow := &transport.Flow{
			ID: netsim.FlowID(i + 1), Src: in.Senders[i], Dst: in.Recv,
			Size: 1 << 20, Start: in.Net.Now(),
		}
		params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(i, 4096, bw100G), EC: true}
		conn, err := transport.Start(in.SenderEps[i], in.RecvEp, flow, params,
			baselines.NewMPRDMA(), &transport.FixedEntropy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	in.Net.Sched.RunUntil(200 * eventq.Millisecond)
	for i, c := range conns {
		if !c.Completed() {
			t.Fatalf("EC incast flow %d did not complete", i)
		}
	}
	assertNoViolations(t, ic)
}

// orderDigest folds the packet event stream without timestamps — the
// event-order fingerprint the time-rescaling relation compares.
type orderDigest struct {
	h uint64
	n uint64
}

func newOrderDigest() *orderDigest { return &orderDigest{h: netsim.DigestSeed} }

func (o *orderDigest) fold(kind uint64, p *netsim.Packet, extra uint64) {
	o.h = netsim.DigestFold(o.h, kind)
	o.h = netsim.DigestFold(o.h, uint64(p.Flow)<<32|uint64(uint8(p.Type))<<16|uint64(uint32(p.Size))&0xffff)
	o.h = netsim.DigestFold(o.h, uint64(p.Seq))
	o.h = netsim.DigestFold(o.h, extra)
	o.n++
}

func (o *orderDigest) PacketSent(_ *netsim.Host, p *netsim.Packet) { o.fold(1, p, 0) }
func (o *orderDigest) PacketDelivered(_ *netsim.Link, p *netsim.Packet) {
	o.fold(2, p, 0)
}
func (o *orderDigest) PacketDropped(_ string, r netsim.DropReason, p *netsim.Packet) {
	o.fold(3, p, uint64(r))
}

// rescaledIncast runs a loss-free 3-sender incast star with every
// propagation delay multiplied by k and every bandwidth divided by k, so
// all event times scale by exactly k, and returns the time-free order
// digest. The star is built by hand rather than with simtest.NewIncast
// because that fixture hardwires 1 µs on the receiver leg, which would not
// scale.
func rescaledIncast(t *testing.T, k int64) uint64 {
	t.Helper()
	bw := bw100G / k
	unit := eventq.Time(k) * eventq.Microsecond
	delays := []eventq.Time{unit, 2 * unit, 100 * unit}

	net := netsim.New(9)
	od := newOrderDigest()
	net.Observer = od
	ic := netsim.AttachInvariants(net)
	defer assertNoViolations(t, ic)

	sw := netsim.NewSwitch(net, "sw", nil)
	recv := netsim.NewHost(net, "recv", 0)
	recv.AttachNIC(sw, bw, unit)
	router := simtest.DstRouter{}
	sw.AddPort(recv, bw, unit, simtest.PortConfig())
	router[recv.ID()] = 0
	recvEp := transport.NewEndpoint(recv)

	var conns []*transport.Conn
	for i, d := range delays {
		s := netsim.NewHost(net, "s"+string(rune('0'+i)), 0)
		s.AttachNIC(sw, bw, d)
		idx, _ := sw.AddPort(s, bw, d, simtest.PortConfig())
		router[s.ID()] = idx
		sw.SetRouter(router)
		ep := transport.NewEndpoint(s)

		rtt := 2*(d+unit) + 2*(netsim.SerializationTime(4096+transport.HeaderSize, bw)+
			netsim.SerializationTime(netsim.AckSize, bw))
		flow := &transport.Flow{
			ID: netsim.FlowID(i + 1), Src: s, Dst: recv,
			Size: 1 << 20, Start: net.Now(),
		}
		conn, err := transport.Start(ep, recvEp, flow,
			transport.Params{MTU: 4096, BaseRTT: rtt},
			baselines.NewMPRDMA(), &transport.FixedEntropy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	net.Sched.RunUntil(eventq.Time(k) * 100 * eventq.Millisecond)
	for i, c := range conns {
		if !c.Completed() {
			t.Fatalf("rescaled (k=%d) incast flow %d did not complete", k, i)
		}
	}
	if od.n == 0 {
		t.Fatal("order digest observed no events")
	}
	return od.h
}

// TestMetamorphicTimeRescaling: the simulator's integer-picosecond
// arithmetic is exact, so dilating time by k (delays ×k, bandwidths ÷k)
// must reproduce the identical event sequence — same packets, same
// ordering, same drops — just on a stretched clock. Queue byte occupancies
// are time-scale invariant, so even the RED coin flips replay identically.
func TestMetamorphicTimeRescaling(t *testing.T) {
	base := rescaledIncast(t, 1)
	for _, k := range []int64{2, 5} {
		if got := rescaledIncast(t, k); got != base {
			t.Errorf("time rescaling ×%d changed the event order digest: %#016x vs %#016x", k, got, base)
		}
	}
}

// flowDigest folds per-flow event streams — everything that identifies
// behaviour (kind, seq, type, size, timestamp) but nothing that identifies
// the host or the flow label itself — so two flows on symmetric hosts can
// be compared across a relabeling.
type flowDigest struct {
	net *netsim.Network
	h   map[netsim.FlowID]uint64
}

func newFlowDigest(net *netsim.Network) *flowDigest {
	return &flowDigest{net: net, h: map[netsim.FlowID]uint64{}}
}

func (f *flowDigest) fold(kind uint64, p *netsim.Packet, extra uint64) {
	h, ok := f.h[p.Flow]
	if !ok {
		h = netsim.DigestSeed
	}
	h = netsim.DigestFold(h, kind)
	h = netsim.DigestFold(h, uint64(f.net.Now()))
	h = netsim.DigestFold(h, uint64(uint8(p.Type))<<32|uint64(uint32(p.Size)))
	h = netsim.DigestFold(h, uint64(p.Seq))
	h = netsim.DigestFold(h, extra)
	f.h[p.Flow] = h
}

func (f *flowDigest) PacketSent(_ *netsim.Host, p *netsim.Packet) { f.fold(1, p, 0) }
func (f *flowDigest) PacketDelivered(_ *netsim.Link, p *netsim.Packet) {
	f.fold(2, p, 0)
}
func (f *flowDigest) PacketDropped(_ string, r netsim.DropReason, p *netsim.Packet) {
	f.fold(3, p, uint64(r))
}

// relabeledIncast runs a 2-sender incast whose senders are perfectly
// symmetric (equal delays) with flow labels assigned by perm: sender i
// carries flow perm[i]. Start order follows senders, not labels, so the
// two runs differ only in the labels stamped on packets.
func relabeledIncast(t *testing.T, perm [2]netsim.FlowID) map[netsim.FlowID]uint64 {
	t.Helper()
	delays := []eventq.Time{2 * eventq.Microsecond, 2 * eventq.Microsecond}
	in := simtest.NewIncast(9, bw100G, delays, simtest.PortConfig())
	fd := newFlowDigest(in.Net)
	in.Net.Observer = fd
	ic := netsim.AttachInvariants(in.Net)
	defer assertNoViolations(t, ic)
	var conns []*transport.Conn
	for i := range delays {
		flow := &transport.Flow{
			ID: perm[i], Src: in.Senders[i], Dst: in.Recv,
			Size: 1 << 20, Start: in.Net.Now(),
		}
		params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(i, 4096, bw100G)}
		conn, err := transport.Start(in.SenderEps[i], in.RecvEp, flow, params,
			baselines.NewMPRDMA(), &transport.FixedEntropy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	in.Net.Sched.RunUntil(100 * eventq.Millisecond)
	for i, c := range conns {
		if !c.Completed() {
			t.Fatalf("relabeled incast flow on sender %d did not complete", i)
		}
	}
	return fd.h
}

// TestMetamorphicHostRelabeling: with symmetric senders, swapping which
// flow label rides on which sender must swap the per-flow event streams
// verbatim — the label is the only difference between the runs. A failure
// means some component keys behaviour on the flow id (or host id) itself.
func TestMetamorphicHostRelabeling(t *testing.T) {
	a := relabeledIncast(t, [2]netsim.FlowID{1, 2})
	b := relabeledIncast(t, [2]netsim.FlowID{2, 1})
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("expected 2 per-flow digests, got %d and %d", len(a), len(b))
	}
	if a[1] != b[2] || a[2] != b[1] {
		t.Errorf("relabeling is not a symmetry: a={1:%#x 2:%#x} b={1:%#x 2:%#x}",
			a[1], a[2], b[1], b[2])
	}
	if a[1] == a[2] {
		t.Error("distinct senders produced identical per-flow digests (digest too weak)")
	}
}

// TestMetamorphicSeedPermutation: a run's digest depends only on its own
// seed and scenario, never on what else ran earlier in the process — the
// property that lets CI shuffle test order freely. A failure means shared
// mutable state (package-level RNG, leaked pool, stale timer) crossed
// between simulations.
func TestMetamorphicSeedPermutation(t *testing.T) {
	first := runIncast(t, false)
	if lossy := runIncast(t, true); lossy == first {
		t.Fatalf("loss-free and lossy incast share digest %#016x", first)
	}
	runDumbbell(t)
	if again := runIncast(t, false); again != first {
		t.Errorf("incast digest changed after unrelated runs: %#016x vs %#016x", again, first)
	}
}
