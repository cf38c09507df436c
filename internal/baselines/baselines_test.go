package baselines

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/stats"
	"uno/internal/transport"
)

const bw100G = int64(100e9)

func bdpBytes(rtt eventq.Time) float64 { return float64(bw100G) / 8 * rtt.Seconds() }

func start(t *testing.T, in *simtest.Incast, i int, id int64, size int64,
	cc transport.CongestionControl) *transport.Conn {
	t.Helper()
	flow := &transport.Flow{
		ID: netsim.FlowID(id), Src: in.Senders[i], Dst: in.Recv,
		Size: size, Start: in.Net.Now(),
	}
	params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(i, 4096, bw100G)}
	conn, err := transport.Start(in.SenderEps[i], in.RecvEp, flow, params, cc,
		&transport.FixedEntropy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// ---- Gemini ----

func TestGeminiDefaults(t *testing.T) {
	conn, cfg := geminiFixture(t)
	cc := NewGemini(cfg)
	cc.Init(conn)
	if got := conn.Cwnd(); got != cfg.BDP {
		t.Fatalf("initial cwnd = %v, want one BDP %v", got, cfg.BDP)
	}
	if cc.alpha != 0.001*cfg.BDP {
		t.Fatalf("alpha = %v, want 0.001 BDP", cc.alpha)
	}
}

func TestGeminiSingleFlowUtilization(t *testing.T) {
	in := simtest.NewIncast(1, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	rtt := in.BaseRTT(0, 4096, bw100G)
	cc := NewGemini(GeminiConfig{BDP: bdpBytes(rtt), IntraBDP: bdpBytes(rtt), BaseRTT: rtt})
	conn := start(t, in, 0, 1, 64<<20, cc)
	in.Net.Sched.RunUntil(50 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// 64 MiB at ~12.5 GB/s ≈ 5.4 ms; allow generous slack.
	if conn.FCT() > 12*eventq.Millisecond {
		t.Fatalf("Gemini single-flow FCT %v; poor utilization", conn.FCT())
	}
}

func TestGeminiSameRTTFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	delays := []eventq.Time{eventq.Microsecond, eventq.Microsecond}
	in := simtest.NewIncast(2, bw100G, delays, simtest.PortConfig())
	var conns []*transport.Conn
	for i := range delays {
		rtt := in.BaseRTT(i, 4096, bw100G)
		cc := NewGemini(GeminiConfig{BDP: bdpBytes(rtt), IntraBDP: bdpBytes(rtt), BaseRTT: rtt})
		conns = append(conns, start(t, in, i, int64(i+1), 1<<30, cc))
	}
	const horizon = 10 * eventq.Millisecond
	rs := simtest.NewRateSampler(in.Net.Sched, conns, 0, eventq.Millisecond, horizon)
	in.Net.Sched.RunUntil(horizon)
	rates := rs.FinalRates(5, 10)
	if j := stats.JainIndex(rates); j < 0.9 {
		t.Fatalf("Gemini same-RTT fairness %v (rates %v)", j, rates)
	}
}

func TestGeminiReactsPerFlowRTT(t *testing.T) {
	// An inter-DC-like Gemini flow must run rounds at its own (long) RTT:
	// round count ≈ elapsed / RTT, far fewer than UnoCC's unified epochs.
	in := simtest.NewIncast(3, bw100G, []eventq.Time{200 * eventq.Microsecond}, simtest.PortConfig())
	rtt := in.BaseRTT(0, 4096, bw100G)
	cc := NewGemini(GeminiConfig{
		BDP: bdpBytes(rtt), IntraBDP: bdpBytes(5 * eventq.Microsecond),
		BaseRTT: rtt, InterDC: true,
	})
	start(t, in, 0, 1, 256<<20, cc)
	in.Net.Sched.RunUntil(8 * eventq.Millisecond)
	elapsedRTTs := int(in.Net.Now() / rtt)
	if cc.Rounds > 2*elapsedRTTs {
		t.Fatalf("Gemini rounds = %d over %d RTTs; should be per-RTT", cc.Rounds, elapsedRTTs)
	}
	if cc.Rounds == 0 {
		t.Fatal("Gemini never completed a round")
	}
}

func TestGeminiDelaySignalForWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// Two inter-DC Gemini flows on one bottleneck with *no* usable ECN
	// (thresholds above the queue cap): delay must still drive MD and
	// keep the queue bounded away from perpetual tail-drop.
	delays := []eventq.Time{100 * eventq.Microsecond, 100 * eventq.Microsecond}
	cfg := netsim.PortConfig{QueueCap: 1 << 20, ControlBypass: true} // no RED marking
	in := simtest.NewIncast(4, bw100G, delays, cfg)
	var ccs []*Gemini
	for i := range delays {
		rtt := in.BaseRTT(i, 4096, bw100G)
		cc := NewGemini(GeminiConfig{
			BDP: bdpBytes(rtt), IntraBDP: bdpBytes(5 * eventq.Microsecond),
			BaseRTT: rtt, InterDC: true,
		})
		ccs = append(ccs, cc)
		start(t, in, i, int64(i+1), 1<<30, cc)
	}
	in.Net.Sched.RunUntil(20 * eventq.Millisecond)
	if ccs[0].MDs == 0 && ccs[1].MDs == 0 {
		t.Fatal("no delay-driven MDs despite standing queue")
	}
}

// ---- MPRDMA ----

func TestMPRDMASingleFlowUtilization(t *testing.T) {
	in := simtest.NewIncast(5, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewMPRDMA()
	conn := start(t, in, 0, 1, 32<<20, cc)
	in.Net.Sched.RunUntil(50 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// 32 MiB at line rate ≈ 2.7 ms; the per-ACK AIMD ramps fast.
	if conn.FCT() > 8*eventq.Millisecond {
		t.Fatalf("MPRDMA FCT %v; poor ramp-up", conn.FCT())
	}
}

func TestMPRDMAMarkedAckShrinksWindow(t *testing.T) {
	in := simtest.NewIncast(6, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewMPRDMA()
	conn := start(t, in, 0, 1, 1<<20, cc)
	w := conn.Cwnd()
	cc.OnAck(conn, transport.AckInfo{Marked: true, Bytes: 4160})
	if conn.Cwnd() >= w {
		t.Fatalf("marked ack did not shrink window: %v → %v", w, conn.Cwnd())
	}
	w = conn.Cwnd()
	cc.OnAck(conn, transport.AckInfo{Marked: false, Bytes: 4160})
	if conn.Cwnd() <= w {
		t.Fatal("unmarked ack did not grow window")
	}
}

func TestMPRDMAIncastKeepsQueueBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	delays := make([]eventq.Time, 8)
	for i := range delays {
		delays[i] = eventq.Microsecond
	}
	in := simtest.NewIncast(7, bw100G, delays, simtest.PortConfig())
	var conns []*transport.Conn
	for i := range delays {
		conns = append(conns, start(t, in, i, int64(i+1), 1<<30, NewMPRDMA()))
	}
	maxQ := int64(0)
	var sample func()
	sample = func() {
		if q := in.Bottleneck.QueuedBytes(); q > maxQ {
			maxQ = q
		}
		if in.Net.Now() < 5*eventq.Millisecond {
			in.Net.Sched.After(10*eventq.Microsecond, sample)
		}
	}
	in.Net.Sched.Schedule(eventq.Millisecond, sample)
	in.Net.Sched.RunUntil(5 * eventq.Millisecond)
	// ECN must keep the standing queue below the tail-drop ceiling in
	// steady state.
	if maxQ >= 1<<20 {
		t.Fatalf("MPRDMA let the queue hit capacity: %d", maxQ)
	}
	rs := simtest.NewRateSampler(in.Net.Sched, conns, 5*eventq.Millisecond, eventq.Millisecond, 10*eventq.Millisecond)
	in.Net.Sched.RunUntil(10 * eventq.Millisecond)
	rates := rs.FinalRates(2, 5)
	if j := stats.JainIndex(rates); j < 0.85 {
		t.Fatalf("MPRDMA incast fairness %v (rates %v)", j, rates)
	}
}

// ---- BBR ----

func TestBBRSingleFlowFindsBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// 25 Gb/s bottleneck, long RTT: BBR must converge to ≈ bottleneck
	// rate without collapsing.
	net := netsim.New(8)
	s1 := netsim.NewSwitch(net, "s1", nil)
	s2 := netsim.NewSwitch(net, "s2", nil)
	a := netsim.NewHost(net, "a", 0)
	b := netsim.NewHost(net, "b", 0)
	delay := 100 * eventq.Microsecond
	a.AttachNIC(s1, bw100G, delay)
	b.AttachNIC(s2, bw100G, delay)
	s1.AddPort(s2, 25e9, delay, simtest.PortConfig()) // bottleneck
	s1.AddPort(a, bw100G, delay, simtest.PortConfig())
	s2.AddPort(b, bw100G, delay, simtest.PortConfig())
	s2.AddPort(s1, bw100G, delay, simtest.PortConfig())
	s1.SetRouter(simtest.DstRouter{a.ID(): 1, b.ID(): 0})
	s2.SetRouter(simtest.DstRouter{b.ID(): 0, a.ID(): 1})
	epA, epB := transport.NewEndpoint(a), transport.NewEndpoint(b)

	rtt := 600 * eventq.Microsecond
	cc := NewBBR()
	flow := &transport.Flow{ID: 1, Src: a, Dst: b, Size: 64 << 20}
	params := transport.Params{MTU: 4096, BaseRTT: rtt}
	conn, err := transport.Start(epA, epB, flow, params, cc, &transport.FixedEntropy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Sched.RunUntil(200 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("BBR flow did not complete")
	}
	// Goodput must be in the 25 Gb/s bottleneck's regime, not collapsed.
	// The run takes a handful of genuine timeouts, and each one restarts
	// bandwidth discovery from the minimal model (OnTimeout clears the
	// max filter instead of pacing on at the stale pre-loss estimate), so
	// the bar is ~25% of line rate rather than the ~50% the pre-loss
	// pinning used to coast to.
	goodput := float64(64<<20) / conn.FCT().Seconds() * 8
	if goodput < 6.25e9 || goodput > 26e9 {
		t.Fatalf("BBR goodput %v bps vs 25e9 bottleneck", goodput)
	}
	if cc.Rounds == 0 {
		t.Fatal("BBR never sampled bandwidth")
	}
}

func TestBBRSetsPacing(t *testing.T) {
	in := simtest.NewIncast(9, bw100G, []eventq.Time{100 * eventq.Microsecond}, simtest.PortConfig())
	cc := NewBBR()
	conn := start(t, in, 0, 1, 1<<20, cc)
	if conn.PacingRate() <= 0 {
		t.Fatal("BBR did not set a pacing rate")
	}
}

func TestBBRTimeoutRestartsStartup(t *testing.T) {
	in := simtest.NewIncast(10, bw100G, []eventq.Time{100 * eventq.Microsecond}, simtest.PortConfig())
	cc := NewBBR()
	conn := start(t, in, 0, 1, 1<<20, cc)
	cc.phase = bbrProbeBW
	cc.OnTimeout(conn)
	if cc.phase != bbrStartup {
		t.Fatalf("phase after timeout = %d, want startup", cc.phase)
	}
}

func TestBBRProbeGainCycle(t *testing.T) {
	if len(bbrProbeGains) != 8 || bbrProbeGains[0] != 1.25 || bbrProbeGains[1] != 0.75 {
		t.Fatalf("probe gain cycle wrong: %v", bbrProbeGains)
	}
	for _, g := range bbrProbeGains[2:] {
		if g != 1 {
			t.Fatalf("cruise gains must be 1: %v", bbrProbeGains)
		}
	}
}
