package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// snoopCC is FixedWindow plus a probe run on every ACK, before the ACK can
// complete the flow: completion tears the sender's per-packet and fountain
// state down, so tests that assert on that state sample it here.
type snoopCC struct {
	FixedWindow
	probe func(c *Conn)
}

func (s *snoopCC) OnAck(c *Conn, _ AckInfo) { s.probe(c) }

func fountainParams(d *dumbbell) Params {
	p := d.baseParams()
	p.EC = ECConfig{Data: 8, Parity: 2, BlockTimeout: 50 * eventq.Microsecond, Scheme: SchemeFountain}
	return p
}

func TestParseECScheme(t *testing.T) {
	cases := []struct {
		in   string
		want ECScheme
		err  bool
	}{
		{"rs82", SchemeRS, false},
		{"rs", SchemeRS, false},
		{"fountain", SchemeFountain, false},
		{"lt", SchemeFountain, false},
		{"bogus", SchemeAuto, true},
		{"", SchemeAuto, true},
	}
	for _, c := range cases {
		got, err := ParseECScheme(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("ParseECScheme(%q) = %v, %v", c.in, got, err)
		}
	}
	if ECSchemeName(SchemeRS) != "rs82" || ECSchemeName(SchemeFountain) != "fountain" ||
		ECSchemeName(SchemeAuto) != "auto" {
		t.Fatal("ECSchemeName wrong")
	}
}

func TestECSchemeDefaultResolution(t *testing.T) {
	old := ECSchemeDefault()
	defer SetECSchemeDefault(old)

	p := Params{EC: ECConfig{Data: 8, Parity: 2}}.withDefaults()
	if p.EC.Scheme != SchemeRS {
		t.Fatalf("default scheme = %v, want SchemeRS", p.EC.Scheme)
	}
	SetECSchemeDefault(SchemeFountain)
	p = Params{EC: ECConfig{Data: 8, Parity: 2}}.withDefaults()
	if p.EC.Scheme != SchemeFountain || !p.EC.Fountain() {
		t.Fatalf("overridden scheme = %v, want SchemeFountain", p.EC.Scheme)
	}
	// An explicit per-flow scheme wins over the default.
	p = Params{EC: ECConfig{Data: 8, Parity: 2, Scheme: SchemeRS}}.withDefaults()
	if p.EC.Scheme != SchemeRS {
		t.Fatalf("explicit scheme overridden: %v", p.EC.Scheme)
	}
	// Non-EC flows are untouched.
	p = Params{}.withDefaults()
	if p.EC.Scheme != SchemeAuto || p.EC.Fountain() {
		t.Fatal("scheme resolved for a non-EC flow")
	}
	// SchemeAuto restores the built-in default.
	SetECSchemeDefault(SchemeAuto)
	if ECSchemeDefault() != SchemeRS {
		t.Fatal("SchemeAuto did not restore SchemeRS")
	}
}

func TestFountainValidateDataCap(t *testing.T) {
	d := newDumbbell(30, gbps100)
	p := d.baseParams()
	p.EC = ECConfig{Data: 65, Parity: 2, Scheme: SchemeFountain}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 1 << 20}
	if _, err := Open(d.epA, d.epB, flow, p, &FixedWindow{}, &FixedEntropy{}, nil); err == nil {
		t.Fatal("fountain with Data > 64 accepted")
	}
}

// TestFountainLosslessMatchesRS: with no loss the fountain flow behaves
// like RS — every scheduled packet sent once, no appended symbols, block
// completion at the first dataCount arrivals.
func TestFountainLosslessMatchesRS(t *testing.T) {
	d := newDumbbell(31, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 40 * 4096}
	minted := 0
	cc := &snoopCC{FixedWindow{Window: 1 << 20}, func(c *Conn) { minted = len(c.ft.extra) }}
	conn := d.run(flow, fountainParams(d), cc, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	st := conn.Stats()
	if st.PktsRetrans != 0 || st.NacksReceived != 0 {
		t.Fatalf("lossless fountain run retransmitted: %+v", st)
	}
	if got := conn.TotalPkts(); st.PktsSent != uint64(got) {
		t.Fatalf("sent %d packets, schedule has %d", st.PktsSent, got)
	}
	if minted != 0 {
		t.Fatalf("minted %d repair symbols without loss", minted)
	}
}

// TestFountainNackMintsFreshSymbols: persistently black-hole four block-0
// symbols — two source packets plus both scheduled repair symbols — so the
// block can only ever complete from freshly minted symbols triggered by the
// receiver's NACK. (A transient drop is not enough: two scheduled LT repair
// symbols usually cover two missing sources without any NACK.)
func TestFountainNackMintsFreshSymbols(t *testing.T) {
	d := newDumbbell(32, gbps100)
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		return p.Type == netsim.Data && p.Block == 0 &&
			(p.BlockIdx == 2 || p.BlockIdx == 5 || p.BlockIdx == 8 || p.BlockIdx == 9)
	}})
	params := fountainParams(d)
	params.MinRTO = eventq.Second // recovery must come from the NACK path
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 24 * 4096}
	minted := 0
	cc := &snoopCC{FixedWindow{Window: 1 << 20}, func(c *Conn) { minted = len(c.ft.extraSeqs[0]) }}
	conn := d.run(flow, params, cc, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete via fountain NACK recovery")
	}
	st := conn.Stats()
	if st.NacksReceived == 0 {
		t.Fatal("no NACK observed")
	}
	if minted < 2 {
		t.Fatalf("NACK minted %d fresh repair symbols, want >= 2", minted)
	}
	// The block decoded without the black-holed source packets ever arriving.
	rcv := d.epB.Receiver(1)
	if rcv.has(2) || rcv.has(5) {
		t.Fatal("black-holed sources arrived")
	}
	if !rcv.blocks[0].complete {
		t.Fatal("block 0 incomplete")
	}
	if conn.InFlight() != 0 {
		t.Fatalf("in-flight bytes leaked: %d", conn.InFlight())
	}
}

// TestFountainRandomLossCompletes is the fountain counterpart of
// TestRandomLossAlwaysCompletes, plus EWMA and accounting checks.
func TestFountainRandomLossCompletes(t *testing.T) {
	for _, lossRate := range []float64{0.01, 0.05, 0.15} {
		d := newDumbbell(33, gbps100)
		r := rng.New(42)
		d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
			return r.Float64() < lossRate
		}})
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 256 * 4096}
		lossEWMA := 0.0
		cc := &snoopCC{FixedWindow{Window: 64 * 4160}, func(c *Conn) { lossEWMA = c.ft.lossEWMA }}
		conn := d.run(flow, fountainParams(d), cc, &FixedEntropy{})
		if !conn.Completed() {
			t.Fatalf("flow did not complete at loss rate %v", lossRate)
		}
		if conn.InFlight() != 0 {
			t.Fatalf("loss %v: in-flight bytes leaked: %d", lossRate, conn.InFlight())
		}
		if conn.stats.NacksReceived > 0 && lossEWMA <= 0 {
			t.Fatalf("loss %v: NACKs seen but loss EWMA never moved", lossRate)
		}
	}
}

// TestFountainTailBlock: a flow whose final block has fewer than Data
// source packets must complete under loss concentrated on the tail.
func TestFountainTailBlock(t *testing.T) {
	d := newDumbbell(34, gbps100)
	// 19 data packets -> blocks of 8, 8, 3: black-hole one source packet
	// of the short tail block on first transmission.
	dropped := false
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
		if p.Type == netsim.Data && p.Block == 2 && p.BlockIdx == 1 && !p.IsRtx && !dropped {
			dropped = true
			return true
		}
		return false
	}})
	params := fountainParams(d)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 19 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("tail-block fountain flow did not complete")
	}
	if !dropped {
		t.Fatal("test did not exercise the tail block")
	}
	rcv := d.epB.Receiver(1)
	if !rcv.Complete() {
		t.Fatal("receiver incomplete")
	}
}

// TestFountainAdaptiveRedundancy checks the proactive-repair sizing: with a
// raised loss EWMA, a block's last scheduled repair transmission must mint
// extra symbols up front, correctly accounted in schedule/state/rtxQ.
func TestFountainAdaptiveRedundancy(t *testing.T) {
	d := newDumbbell(35, gbps100)
	params := fountainParams(d).withDefaults()
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 16 * 4096}
	conn := newConn(d.epA, flow, &params, newSchedule(flow.Size, &params),
		&FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)

	// adaptiveRepair solves n(1-p) >= dataCount.
	blk := conn.sched.block(0)
	conn.ft.lossEWMA = 0
	if got := conn.adaptiveRepair(blk); got != 0 {
		t.Fatalf("extra repair at zero loss = %d", got)
	}
	conn.ft.lossEWMA = 0.25 // ceil(8/0.75)=11 -> 1 beyond the scheduled 10
	if got := conn.adaptiveRepair(blk); got != 1 {
		t.Fatalf("extra repair at 25%% loss = %d, want 1", got)
	}
	conn.ft.lossEWMA = 0.9 // clamped to 0.5: ceil(8/0.5)=16 -> 6 extra
	if got := conn.adaptiveRepair(blk); got != 6 {
		t.Fatalf("extra repair at clamped loss = %d, want 6", got)
	}

	// appendRepair coherence: new entries land past the static schedule,
	// on the rtxQ, with fresh ids and parity sizing.
	before := int(conn.TotalPkts())
	conn.appendRepair(0, 3)
	if len(conn.ft.extra) != 3 || len(conn.state) != before+3 {
		t.Fatalf("schedule grew %d, want 3", len(conn.ft.extra))
	}
	if len(conn.ft.extraSeqs[0]) != 3 || len(conn.rtxQ) != 3 {
		t.Fatalf("bookkeeping wrong: extra=%d rtxQ=%d", len(conn.ft.extraSeqs[0]), len(conn.rtxQ))
	}
	wantID := blk.count
	for i, seq := range conn.ft.extraSeqs[0] {
		e := conn.desc(seq)
		if e.block != 0 || !e.parity || e.blockIdx != wantID+int16(i) {
			t.Fatalf("appended entry %d wrong: %+v", i, e)
		}
		if e.wire != conn.params.MTU+HeaderSize {
			t.Fatalf("appended wire size %d", e.wire)
		}
		if st := conn.state[seq]; !st.lossPending || st.sent {
			t.Fatalf("appended state wrong: %+v", st)
		}
	}
	// EWMA folding: 7/8 decay plus 1/8 sample.
	conn.ft.lossEWMA = 0
	conn.noteLossSample(2, 10)
	if got, want := conn.ft.lossEWMA, 0.2/8; got != want {
		t.Fatalf("EWMA after one sample = %v, want %v", got, want)
	}
}

// TestFountainEndToEndDeterminism: two identical lossy runs produce
// identical packet counts — the fountain path must not introduce any
// nondeterminism (map iteration, timing races).
func TestFountainEndToEndDeterminism(t *testing.T) {
	run := func() (ConnStats, uint64) {
		d := newDumbbell(36, gbps100)
		r := rng.New(9)
		d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool {
			return r.Float64() < 0.08
		}})
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 128 * 4096}
		conn := d.run(flow, fountainParams(d), &FixedWindow{Window: 32 * 4160}, &FixedEntropy{})
		if !conn.Completed() {
			t.Fatal("flow did not complete")
		}
		return conn.Stats(), d.epB.Receiver(1).NacksSent
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("nondeterministic fountain run:\n%+v %d\n%+v %d", s1, n1, s2, n2)
	}
}

// TestFountainHostileEchoAckDropped pins a fuzzer-found crash: a hostile
// data packet whose seq lies past any schedule the sender will ever mint
// still takes the receiver's dynamic-arrival path (IsParity plus in-range
// block identity), and the receiver echoes that seq in its ACK. The sender
// must drop the echo — pre-fix it panicked with "ack for bad seq". The
// minimized fuzz input is also checked in under testdata/fuzz.
func TestFountainHostileEchoAckDropped(t *testing.T) {
	d := newDumbbell(37, gbps100)
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 8 * 4096}
	d.net.Sched.Schedule(2*eventq.Microsecond, func() {
		p := d.net.AllocPacket()
		p.Type = netsim.Data
		p.Flow = flow.ID
		p.Src = d.a.ID()
		p.Dst = d.b.ID()
		p.Seq = 12288 // far past the static schedule and any minted symbol
		p.Size = 64
		p.IsParity = true
		p.Block = 0
		p.BlockIdx = 0
		p.AckBlock = -1
		d.b.HandlePacket(p)
	})
	conn := d.run(flow, fountainParams(d), &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete after hostile dynamic-seq injection")
	}
	if conn.InFlight() != 0 {
		t.Fatalf("in-flight bytes leaked: %d", conn.InFlight())
	}
}
