package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// Tests of the three loss-recovery repairs (DESIGN §5, "Loss recovery"): the
// first timeout resends what is one RTO old, the RTO is conservative until
// the flow has an RTT sample, and an ACK returns on its data packet's
// entropy. Each fails with its repair taken out.

// dropFirstTx drops, on the dumbbell's bottleneck, the first `times`
// transmissions of every data packet with seq >= from, and counts them.
func dropFirstTx(d *dumbbell, from int64, times int) *int {
	lost := new(int)
	seen := map[int64]int{}
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type != netsim.Data || p.Seq < from || seen[p.Seq] >= times {
			return false
		}
		seen[p.Seq]++
		*lost++
		return true
	}})
	return lost
}

func TestLossRecoveryFirstTimeoutResendsTail(t *testing.T) {
	// The last 4 of 32 packets are lost: no later ACK exists to trigger
	// either fast-retransmit rule, so the RTO must recover them — at its
	// first expiry, when they are one RTO old. With the cutoff taken after
	// the back-off they were never "two RTOs old" before the fourth.
	d := newDumbbell(21, gbps100)
	const n, tail = 32, 4
	lost := dropFirstTx(d, n-tail, 1)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: n * 4096}
	params := d.baseParams()
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	st := conn.Stats()
	if *lost != tail {
		t.Fatalf("dropped %d packets, want %d", *lost, tail)
	}
	if st.Timeouts != 1 || st.PktsRetrans < tail {
		t.Fatalf("Timeouts = %d, PktsRetrans = %d; want 1 timeout resending the %d-packet tail (stats %+v)",
			st.Timeouts, st.PktsRetrans, tail, st)
	}
	if st.SpuriousRetrans != 0 {
		t.Fatalf("SpuriousRetrans = %d, want 0: every resent packet was lost", st.SpuriousRetrans)
	}
	// One RTO of silence, not 1 + 2 + 4 + 8.
	minRTO, _ := params.rtoBounds()
	if limit := 2 * minRTO; conn.FCT() > limit {
		t.Fatalf("FCT = %v, want under %v (one timeout)", conn.FCT(), limit)
	}
}

func TestLossRecoveryTimeoutsNeedLosses(t *testing.T) {
	// n timeouts imply at least n lost transmissions: the chain of four the
	// broken cutoff produced from a single lost tail cannot occur.
	type lossy func(d *dumbbell) (lost *int)
	tailOnce := func(from int64, times int) lossy {
		return func(d *dumbbell) *int { return dropFirstTx(d, from, times) }
	}
	random := func(seed uint64, rate float64) lossy {
		return func(d *dumbbell) *int {
			lost := new(int)
			r := rng.New(seed)
			drop := filterLoss{fn: func(*netsim.Packet) bool {
				if r.Float64() < rate {
					*lost++
					return true
				}
				return false
			}}
			d.mid.SetLoss(drop)
			d.back.SetLoss(drop)
			return lost
		}
	}
	const n = 64
	cases := []struct {
		name string
		loss lossy
	}{
		{"tail of 1", tailOnce(n-1, 1)},
		{"tail of 3", tailOnce(n-3, 1)},
		{"tail of 2 lost twice", tailOnce(n-2, 2)},
		{"tail of 1 lost three times", tailOnce(n-1, 3)},
		{"random 1%", random(7, 0.01)},
		{"random 5%", random(8, 0.05)},
		{"random 20%", random(9, 0.20)},
	}
	for _, tc := range cases {
		d := newDumbbell(22, gbps100)
		lost := tc.loss(d)
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: n * 4096}
		conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 16 * 4160}, &FixedEntropy{})
		if !conn.Completed() {
			t.Fatalf("%s: flow did not complete", tc.name)
		}
		if st := conn.Stats(); st.Timeouts > uint64(*lost) {
			t.Errorf("%s: %d timeouts from %d lost transmissions (stats %+v)", tc.name, st.Timeouts, *lost, st)
		}
	}
}

func TestLossRecoveryNoTimeoutBeforeFirstSample(t *testing.T) {
	// Four one-window flows launched together from one host: the windows
	// queue in the host's own NIC, and the fourth flow's first ACK comes
	// back after 3 × 32 packets have serialized (32 µs) plus a round trip —
	// later than the RTO floor, 4 × BaseRTT = 32 µs. Nothing is lost
	// anywhere, so nothing may time out: a flow with no RTT sample knows
	// only the unloaded BaseRTT, and waits the RTO ceiling.
	d := newDumbbell(23, gbps100)
	params := Params{MTU: 4096, BaseRTT: 8 * eventq.Microsecond}
	var conns []*Conn
	for i := 1; i <= 4; i++ {
		flow := &Flow{ID: netsim.FlowID(i), Src: d.a, Dst: d.b, Size: 32 * 4096}
		conns = append(conns, MustStart(d.epA, d.epB, flow, params, &FixedWindow{Window: 32 * 4160}, &FixedEntropy{}, nil))
	}
	d.net.Sched.RunUntil(eventq.Second)
	for i, c := range conns {
		if !c.Completed() {
			t.Fatalf("flow %d did not complete", i+1)
		}
		if st := c.Stats(); st.Timeouts != 0 || st.PktsRetrans != 0 {
			t.Errorf("flow %d: Timeouts = %d, PktsRetrans = %d with no drop anywhere (stats %+v)",
				i+1, st.Timeouts, st.PktsRetrans, st)
		}
	}
	if drops := d.mid.Stats().RandomDrops + d.mid.Stats().DownDrops + d.s1.Port(0).Stats().TailDrops; drops != 0 {
		t.Fatalf("fixture dropped %d packets; the test needs a lossless run", drops)
	}
}

// duplex is hostA — swA ⇄ swB — hostB with `paths` parallel links in each
// direction. A packet takes link Entropy % paths toward B and link
// (Entropy / paths) % paths toward A: as on the fat-tree, where every
// switch salts its own hash, packets that share an entropy share a path in
// each direction, and the path back is not the mirror of the path out.
// (simtest.NewParallelDuplex is the same shape, but simtest imports this
// package, and the test below needs the middle links slower than the NICs.)
type duplex struct {
	net      *netsim.Network
	a, b     *netsim.Host
	epA, epB *Endpoint
	fwd, rev []*netsim.Link
}

type duplexRouter struct {
	toB   bool
	paths uint32
	peer  netsim.NodeID // the host behind this switch, on port `paths`
}

func (r duplexRouter) Route(_ *netsim.Switch, p *netsim.Packet) int {
	if p.Dst == r.peer {
		return int(r.paths)
	}
	if r.toB {
		return int(p.Entropy % r.paths)
	}
	return int(p.Entropy / r.paths % r.paths)
}

func newDuplex(seed uint64, paths int, midBps int64) *duplex {
	net := netsim.New(seed)
	d := &duplex{net: net}
	swA := netsim.NewSwitch(net, "swA", nil)
	swB := netsim.NewSwitch(net, "swB", nil)
	d.a = netsim.NewHost(net, "a", 0)
	d.b = netsim.NewHost(net, "b", 0)
	d.a.AttachNIC(swA, gbps100, linkDly)
	d.b.AttachNIC(swB, gbps100, linkDly)
	for i := 0; i < paths; i++ {
		_, l := swA.AddPort(swB, midBps, linkDly, testPort())
		d.fwd = append(d.fwd, l)
		_, l = swB.AddPort(swA, midBps, linkDly, testPort())
		d.rev = append(d.rev, l)
	}
	swA.AddPort(d.a, gbps100, linkDly, testPort())
	swB.AddPort(d.b, gbps100, linkDly, testPort())
	swA.SetRouter(duplexRouter{toB: true, paths: uint32(paths), peer: d.a.ID()})
	swB.SetRouter(duplexRouter{toB: false, paths: uint32(paths), peer: d.b.ID()})
	d.epA, d.epB = NewEndpoint(d.a), NewEndpoint(d.b)
	return d
}

func TestLossRecoveryAckReturnsOnDataPath(t *testing.T) {
	// A one-path flow a→b (entropy 2: link 0 out, link 1 back) while a b→a
	// flow keeps link 1 back full (25 Gb/s links, 100 Gb/s NICs). All of the
	// flow's ACKs must queue behind that data on the one reverse link and so
	// reach the sender in the order their packets left it. With a random
	// entropy per ACK half of them took the idle link 0, overtook the rest
	// by a queue's worth of delay, and the sender read that as loss.
	const gbps25 = int64(25e9)
	d := newDuplex(24, 2, gbps25)
	params := Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond}

	var echoes []eventq.Time
	d.a.SetHandler(func(p *netsim.Packet) {
		if p.Type == netsim.Ack && p.Flow == 1 && !p.EchoRtx {
			echoes = append(echoes, p.EchoSentAt)
		}
		d.epA.handle(p)
	})
	cross := MustStart(d.epB, d.epA, &Flow{ID: 2, Src: d.b, Dst: d.a, Size: 4 << 20}, params,
		&FixedWindow{Window: 128 * 4160}, &FixedEntropy{Entropy: 2}, nil)
	var srtt eventq.Time // the sender's estimate at completion
	flow := MustStart(d.epA, d.epB, &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 1 << 20}, params,
		&FixedWindow{Window: 32 * 4160}, &FixedEntropy{Entropy: 2}, func(c *Conn) { srtt = c.SRTT() })
	pkts := flow.TotalPkts()
	d.net.Sched.RunUntil(eventq.Second)
	if !flow.Completed() || !cross.Completed() {
		t.Fatal("flows did not complete")
	}

	if got := d.rev[0].Stats().Delivered; got != 0 {
		t.Errorf("%d packets crossed reverse link 0; every ACK of entropy 2 belongs on reverse link 1", got)
	}
	if want := uint64(pkts); d.fwd[1].Stats().Delivered != 0 || d.fwd[0].Stats().Delivered < want {
		t.Fatalf("fixture routed the data wrong: forward links delivered %d / %d",
			d.fwd[0].Stats().Delivered, d.fwd[1].Stats().Delivered)
	}
	if len(echoes) != int(pkts) {
		t.Errorf("%d first-transmission ACKs for %d packets", len(echoes), pkts)
	}
	for i := 1; i < len(echoes); i++ {
		if echoes[i] < echoes[i-1] {
			t.Fatalf("ACK %d (packet sent at %v) arrived after the ACK of a packet sent at %v: reordered on one path",
				i, echoes[i], echoes[i-1])
		}
	}
	// The congestion was real: an ACK waited well over the unloaded RTT.
	if srtt < 5*params.BaseRTT {
		t.Fatalf("SRTT = %v: the reverse path was not congested, the test shows nothing", srtt)
	}
	if st := flow.Stats(); st.FastRetrans != 0 || st.SpuriousRetrans != 0 || st.Timeouts != 0 {
		t.Errorf("lossless one-path flow retransmitted: FastRetrans = %d, SpuriousRetrans = %d, Timeouts = %d",
			st.FastRetrans, st.SpuriousRetrans, st.Timeouts)
	}
}

func TestLossRecoverySpuriousRetransCounted(t *testing.T) {
	// SpuriousRetrans counts what the name says. A data packet held back on
	// the wire long enough to be declared lost, then delivered: one spurious
	// retransmission. A packet really lost: none.
	d := newDumbbell(25, gbps100)
	var held *netsim.Packet
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Data && p.Seq == 5 && !p.IsRtx && held == nil {
			cp := *p
			held = &cp
			return true // taken off the wire here, re-injected below
		}
		return p.Type == netsim.Data && p.Seq == 9 && !p.IsRtx
	}})
	d.net.Sched.Schedule(20*eventq.Microsecond, func() { d.s2.HandlePacket(held) })
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 64 * 4096}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 16 * 4160}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	st := conn.Stats()
	if st.PktsRetrans != 2 || st.SpuriousRetrans != 1 {
		t.Fatalf("PktsRetrans = %d, SpuriousRetrans = %d; want 2 retransmissions, 1 of them spurious (stats %+v)",
			st.PktsRetrans, st.SpuriousRetrans, st)
	}
}

func TestLossRecoverySpuriousAfterResend(t *testing.T) {
	// An original whose ACK comes in after its entry was re-sent was
	// declared lost wrongly, however often it was re-sent since: seq 2 goes
	// out twice and seq 3 three times, and each original's ACK counts once.
	// The third transmission leaves the flags as the second did. A packet
	// ACKed without a retransmission (seq 4) and the retransmissions' own
	// ACKs count nothing.
	d := newDumbbell(26, gbps100)
	conn := openPartial(t, d, d.baseParams().withDefaults())
	resend := func(seq int64) {
		st := &conn.s.state[seq]
		if st.has(pktInFlight) { // declared lost the way onRTO does
			conn.inFlight -= int64(conn.s.wireSize(seq))
		}
		*st = *st&^pktInFlight | pktLossPending
		conn.s.transmit(seq, conn.s.sched.desc(seq))
	}
	resend(2)
	resend(3)
	twice := conn.s.state[3]
	resend(3)
	if conn.s.state[3] != twice || conn.s.state[2] != twice {
		t.Fatalf("flags after two transmissions %#x, after three %#x", conn.s.state[2], conn.s.state[3])
	}
	if n := conn.Stats().PktsRetrans; n != 3 {
		t.Fatalf("PktsRetrans = %d, want 3", n)
	}
	ack := func(seq int64, rtx bool) {
		p := d.net.AllocPacket()
		p.Type, p.Flow, p.Src, p.Dst, p.Size = netsim.Ack, 1, d.b.ID(), d.a.ID(), netsim.AckSize
		p.AckSeq, p.EchoRtx, p.AckBlock, p.Subflow = seq, rtx, -1, -1
		d.a.HandlePacket(p)
	}
	ack(2, false)
	ack(3, false)
	ack(4, false)
	ack(2, true)
	ack(3, true)
	// (The three ACKs above seq 0 also declare it lost: not spurious yet.)
	if n := conn.Stats().SpuriousRetrans; n != 2 {
		t.Fatalf("SpuriousRetrans = %d, want 2: both re-sent entries' originals arrived", n)
	}
	assertInFlightConsistent(t, conn)
}
