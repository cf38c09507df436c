package core

import (
	"math"
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/stats"
	"uno/internal/transport"
)

const bw100G = int64(100e9)

// TestCCConfigDefaults pins the Table 2 values a fresh controller starts
// from: the epoch defaults to the flow's RTT, the window and ssthresh to
// one BDP, α to 0.001 × BDP, and an epoch's MD to E·4K/(K+BDP) with
// K = IntraBDP/7 and E the 1/8-gain EWMA of the marked fraction.
func TestCCConfigDefaults(t *testing.T) {
	cfg := CCConfig{BDP: 1e6, IntraBDP: 7e4, BaseRTT: 14 * eventq.Microsecond}.withDefaults()
	if cfg.EpochPeriod != cfg.BaseRTT {
		t.Fatalf("epoch default = %v", cfg.EpochPeriod)
	}
	in := simtest.NewIncast(11, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewUnoCC(cfg)
	conn := startFlow(t, in, 0, 1, 1<<20, cc, nil)
	if conn.Cwnd() != 1e6 || cc.ssthresh != 1e6 || cc.alpha != 1e3 {
		t.Fatalf("cwnd %v, ssthresh %v, alpha %v; want 1e6, 1e6, 1e3", conn.Cwnd(), cc.ssthresh, cc.alpha)
	}
	// One fully marked, physically congested epoch: E = 1/8, K = 1e4.
	cc.epochAcks, cc.epochMarked = 1, 1
	cc.onEpoch(conn, in.Net.Now()+eventq.Millisecond)
	if want := 1e6 * (1 - 0.125*4*1e4/(1e4+1e6)); !approxEq(conn.Cwnd(), want) {
		t.Fatalf("cwnd after one marked epoch = %v, want %v", conn.Cwnd(), want)
	}
}

func approxEq(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }

// ccFor builds a UnoCC for sender i of an incast fixture.
func ccFor(in *simtest.Incast, i int, intraRTT eventq.Time, mods ...func(*CCConfig)) *UnoCC {
	baseRTT := in.BaseRTT(i, 4096, bw100G)
	cfg := CCConfig{
		BDP:      float64(bw100G) / 8 * baseRTT.Seconds(),
		IntraBDP: float64(bw100G) / 8 * intraRTT.Seconds(),
		BaseRTT:  baseRTT,
		// Unified epochs: the intra-DC RTT for every flow.
		EpochPeriod: intraRTT,
	}
	for _, m := range mods {
		m(&cfg)
	}
	return NewUnoCC(cfg)
}

func startFlow(t *testing.T, in *simtest.Incast, i int, id int64, size int64,
	cc transport.CongestionControl, lb transport.PathSelector) *transport.Conn {
	t.Helper()
	if lb == nil {
		lb = &transport.FixedEntropy{}
	}
	flow := &transport.Flow{
		ID:    netsimFlowID(id),
		Src:   in.Senders[i],
		Dst:   in.Recv,
		Size:  size,
		Start: in.Net.Now(),
	}
	params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(i, 4096, bw100G)}
	conn, err := transport.Start(in.SenderEps[i], in.RecvEp, flow, params, cc, lb, nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestAdditiveIncreaseWhenUncongested(t *testing.T) {
	// A single sender with a tiny initial window and no competition: the
	// window must grow by ≈α per RTT while no ECN marks arrive.
	in := simtest.NewIncast(1, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT, func(c *CCConfig) { c.DisableQA = true })
	conn := startFlow(t, in, 0, 1, 64<<20, cc, nil)
	in.Net.Sched.RunUntil(2 * eventq.Millisecond)

	if bdp := cc.Config().BDP; conn.Cwnd() <= bdp*(1+alphaFrac) {
		t.Fatalf("cwnd did not grow past one α above its initial BDP %v: %v", bdp, conn.Cwnd())
	}
	if cc.MDs != 0 {
		t.Fatalf("MD fired with empty queues: %d", cc.MDs)
	}
}

func TestMaxCwndCap(t *testing.T) {
	in := simtest.NewIncast(2, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT, func(c *CCConfig) { c.DisableQA = true })
	conn := startFlow(t, in, 0, 1, 256<<20, cc, nil)
	in.Net.Sched.RunUntil(5 * eventq.Millisecond)
	// An unmarked path lets AI and the headroom probe push the window into
	// the cap, which then holds it exactly.
	if limit := maxCwndBDPs * cc.Config().BDP; conn.Cwnd() != limit {
		t.Fatalf("cwnd %v, want it held at the cap %v", conn.Cwnd(), limit)
	}
}

func TestQuickAdaptCollapsesIncastWindows(t *testing.T) {
	// Eight senders each start at a full BDP window into one bottleneck:
	// Quick Adapt must fire and cut the windows to the observed ack rate
	// within a few RTTs (§4.1.2).
	delays := make([]eventq.Time, 8)
	for i := range delays {
		delays[i] = eventq.Microsecond
	}
	in := simtest.NewIncast(3, bw100G, delays, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	var ccs []*UnoCC
	var conns []*transport.Conn
	for i := range delays {
		cc := ccFor(in, i, intraRTT)
		ccs = append(ccs, cc)
		conns = append(conns, startFlow(t, in, i, int64(i+1), 32<<20, cc, nil))
	}
	in.Net.Sched.RunUntil(20 * intraRTT)

	qaTotal := 0
	for _, cc := range ccs {
		qaTotal += cc.QAFires
	}
	if qaTotal == 0 {
		t.Fatal("Quick Adapt never fired under 8:1 incast with BDP windows")
	}
	// Aggregate window should be near the pipe's capacity, far below the
	// initial 8×BDP overload.
	bdp := ccs[0].Config().BDP
	sum := 0.0
	for _, c := range conns {
		sum += c.Cwnd()
	}
	if sum > 3*bdp {
		t.Fatalf("aggregate cwnd %v still ≫ BDP %v after QA", sum, bdp)
	}
}

func TestQuickAdaptDisabledAblation(t *testing.T) {
	delays := []eventq.Time{eventq.Microsecond, eventq.Microsecond}
	in := simtest.NewIncast(4, bw100G, delays, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT, func(c *CCConfig) { c.DisableQA = true })
	startFlow(t, in, 0, 1, 8<<20, cc, nil)
	in.Net.Sched.RunUntil(5 * eventq.Millisecond)
	if cc.QAFires != 0 {
		t.Fatalf("QA fired %d times despite DisableQA", cc.QAFires)
	}
}

func TestSameRTTFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// Two identical flows on a phantom-queue bottleneck must share it
	// about evenly.
	delays := []eventq.Time{eventq.Microsecond, eventq.Microsecond}
	in := simtest.NewIncast(5, bw100G, delays, simtest.PhantomPortConfig(bw100G, 8<<20))
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	var conns []*transport.Conn
	for i := range delays {
		conns = append(conns, startFlow(t, in, i, int64(i+1), 1<<30, ccFor(in, i, intraRTT), nil))
	}
	const horizon = 20 * eventq.Millisecond
	rs := simtest.NewRateSampler(in.Net.Sched, conns, 0, eventq.Millisecond, horizon)
	in.Net.Sched.RunUntil(horizon)

	rates := rs.FinalRates(12, 20)
	jain := stats.JainIndex(rates)
	if jain < 0.95 {
		t.Fatalf("same-RTT fairness index %v (rates %v)", jain, rates)
	}
	// And the pipe is well utilized (> 60% of 12.5 GB/s).
	if total := rates[0] + rates[1]; total < 0.6*12.5e9 {
		t.Fatalf("utilization too low: %v B/s", total)
	}
}

func TestMixedRTTFairnessUnifiedEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// The paper's central claim (Fig 3 D): intra-DC flows (µs RTTs) and
	// inter-DC flows (128× larger RTT) competing on one bottleneck
	// converge quickly to comparable rates when congestion is acted on at
	// the same (intra-RTT) granularity for everyone.
	delays := []eventq.Time{
		eventq.Microsecond, eventq.Microsecond, // intra
		32 * eventq.Microsecond, 32 * eventq.Microsecond, // "inter"
	}
	in := simtest.NewIncast(6, bw100G, delays, simtest.PhantomPortConfig(bw100G, 8<<20))
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	var conns []*transport.Conn
	for i := range delays {
		conns = append(conns, startFlow(t, in, i, int64(i+1), 1<<30, ccFor(in, i, intraRTT), nil))
	}
	const horizon = 100 * eventq.Millisecond
	rs := simtest.NewRateSampler(in.Net.Sched, conns, 0, eventq.Millisecond, horizon)
	in.Net.Sched.RunUntil(horizon)

	rates := rs.FinalRates(80, 100)
	jain := stats.JainIndex(rates)
	if jain < 0.8 {
		t.Fatalf("mixed-RTT fairness index %v (rates %v)", jain, rates)
	}
}

func TestGentleMDOnPhantomOnlyCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// A single long flow through a phantom-queue port: in steady state the
	// phantom queue marks while the physical queue stays near empty, so
	// UnoCC must classify congestion as phantom-only and apply gentle MD.
	in := simtest.NewIncast(7, bw100G, []eventq.Time{eventq.Microsecond},
		simtest.PhantomPortConfig(bw100G, 512<<10))
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT)
	startFlow(t, in, 0, 1, 1<<30, cc, nil)
	in.Net.Sched.RunUntil(10 * eventq.Millisecond)

	if cc.GentleMDs == 0 {
		t.Fatalf("no gentle MDs despite phantom-only congestion (MDs=%d)", cc.MDs)
	}
	// Physical queue must have stayed shallow (phantom's whole point).
	if occ := in.Bottleneck.QueuedBytes(); occ > 256<<10 {
		t.Fatalf("physical queue %d B despite phantom queue", occ)
	}
}

func TestPhantomAwareDisabledNeverGentle(t *testing.T) {
	in := simtest.NewIncast(8, bw100G, []eventq.Time{eventq.Microsecond},
		simtest.PhantomPortConfig(bw100G, 512<<10))
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT, func(c *CCConfig) { c.DisablePhantomAware = true })
	startFlow(t, in, 0, 1, 64<<20, cc, nil)
	in.Net.Sched.RunUntil(5 * eventq.Millisecond)
	if cc.GentleMDs != 0 {
		t.Fatalf("gentle MDs fired despite DisablePhantomAware: %d", cc.GentleMDs)
	}
}

func TestUnifiedEpochGranularityForLongRTTFlow(t *testing.T) {
	// An "inter-DC" flow (600 µs RTT) with unified epochs set from a
	// ~5 µs intra RTT must run many epochs per RTT — the mechanism that
	// gives Fig 3 D its fast convergence.
	in := simtest.NewIncast(9, bw100G, []eventq.Time{300 * eventq.Microsecond}, simtest.PortConfig())
	intraRTT := 5 * eventq.Microsecond
	cc := ccFor(in, 0, intraRTT)
	conn := startFlow(t, in, 0, 1, 64<<20, cc, nil)
	in.Net.Sched.RunUntil(6 * eventq.Millisecond)

	flowRTTs := int(in.Net.Now() / in.BaseRTT(0, 4096, bw100G))
	if cc.Epochs <= 2*flowRTTs {
		t.Fatalf("epochs = %d over %d flow RTTs; unified granularity not in effect",
			cc.Epochs, flowRTTs)
	}
	_ = conn
}

func TestOnTimeoutCollapsesWindow(t *testing.T) {
	in := simtest.NewIncast(10, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT)
	conn := startFlow(t, in, 0, 1, 16<<20, cc, nil)
	before := conn.Cwnd()
	cc.OnTimeout(conn)
	if got := conn.Cwnd(); got != before/2 {
		t.Fatalf("cwnd after timeout = %v, want half of %v", got, before)
	}
}

// netsimFlowID converts test ids to the netsim flow id type.
func netsimFlowID(id int64) netsim.FlowID { return netsim.FlowID(id) }
