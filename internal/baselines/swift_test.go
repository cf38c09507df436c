package baselines

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
	"uno/internal/stats"
	"uno/internal/transport"
)

// TestSwiftDefaults pins Swift's constants through one decrease: the
// target is half the base RTT above it, the cut is β = 0.8 times the
// overshoot's share of the delay, and no cut exceeds 0.5.
func TestSwiftDefaults(t *testing.T) {
	in := simtest.NewIncast(75, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewSwift()
	conn := start(t, in, 0, 1, 1<<20, cc)
	rtt := conn.Params().BaseRTT
	if got, want := conn.Cwnd(), 10*float64(conn.MTUWire()); got != want {
		t.Fatalf("initial cwnd = %v, want 10 packets %v", got, want)
	}
	now := in.Net.Now() + eventq.Second
	for _, tc := range []struct {
		delay eventq.Time // queuing delay above the base RTT
		want  float64     // cwnd multiplier
	}{
		{rtt / 2, 1},                 // at the target: growth path, zero-byte ACK
		{rtt, 1 - 0.8*0.5},           // overshoot half the delay
		{100 * rtt, 1 - swiftMaxMDF}, // capped
	} {
		const w = 100 * 4160
		conn.SetCwnd(w)
		now += eventq.Second
		cc.OnAck(conn, transport.AckInfo{RTT: rtt + tc.delay, Now: now})
		if got := conn.Cwnd(); !approx(got, w*tc.want) {
			t.Fatalf("delay %v: cwnd %v, want %v", tc.delay, got, w*tc.want)
		}
	}
}

func TestSwiftSingleFlowUtilization(t *testing.T) {
	in := simtest.NewIncast(70, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewSwift()
	conn := start(t, in, 0, 1, 32<<20, cc)
	in.Net.Sched.RunUntil(50 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	if conn.FCT() > 8*eventq.Millisecond {
		t.Fatalf("Swift FCT %v; poor utilization", conn.FCT())
	}
}

func TestSwiftHoldsDelayNearTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// Two backlogged Swift flows: the bottleneck's standing queue must
	// stabilize around the delay target, far below the 1 MiB cap.
	delays := []eventq.Time{eventq.Microsecond, eventq.Microsecond}
	in := simtest.NewIncast(71, bw100G, delays, simtest.PortConfig())
	var conns []*transport.Conn
	for i := range delays {
		conns = append(conns, start(t, in, i, int64(i+1), 1<<30, NewSwift()))
	}
	var q stats.Sample
	var sample func()
	sample = func() {
		q.Add(float64(in.Bottleneck.QueuedBytes()))
		if in.Net.Now() < 10*eventq.Millisecond {
			in.Net.Sched.After(20*eventq.Microsecond, sample)
		}
	}
	in.Net.Sched.Schedule(2*eventq.Millisecond, sample)
	rs := simtest.NewRateSampler(in.Net.Sched, conns, 0, eventq.Millisecond, 10*eventq.Millisecond)
	in.Net.Sched.RunUntil(10 * eventq.Millisecond)

	// The delay target of rtt/2 ≈ 2.3µs corresponds to ≈29 KB of queue at
	// 100 Gb/s; allow generous slack but demand it stays well below cap.
	if q.Mean() > 200<<10 {
		t.Fatalf("mean queue %v B far above the delay target", q.Mean())
	}
	if q.Max() >= 1<<20 {
		t.Fatal("queue hit capacity")
	}
	rates := rs.FinalRates(5, 10)
	if j := stats.JainIndex(rates); j < 0.85 {
		t.Fatalf("Swift fairness %v (rates %v)", j, rates)
	}
	if total := rates[0] + rates[1]; total < 0.6*12.5e9 {
		t.Fatalf("utilization %v B/s too low", total)
	}
}

func TestSwiftCutRateLimited(t *testing.T) {
	in := simtest.NewIncast(72, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	rtt := in.BaseRTT(0, 4096, bw100G)
	cc := NewSwift()
	conn := start(t, in, 0, 1, 1<<20, cc)
	in.Net.Sched.RunUntil(eventq.Millisecond)

	// Synthetic overshoot well after any organic cuts from the live run.
	now := in.Net.Now() + eventq.Second
	over := rtt * 3 // far above target
	before := cc.Cuts
	cc.OnAck(conn, transport.AckInfo{RTT: over, Bytes: 4160, Now: now})
	if cc.Cuts != before+1 {
		t.Fatalf("cuts = %d, want %d", cc.Cuts, before+1)
	}
	// Immediate second overshoot sample: still within one RTT → no cut.
	cc.OnAck(conn, transport.AckInfo{RTT: over, Bytes: 4160, Now: now + eventq.Nanosecond})
	if cc.Cuts != before+1 {
		t.Fatal("cut not rate-limited to once per RTT")
	}
}

// TestSwiftDecreaseFloors pins the one-packet cwnd floor on both decrease
// paths. The timeout cases fail on the pre-floor code (OnTimeout halved
// unboundedly).
func TestSwiftDecreaseFloors(t *testing.T) {
	const mss = 4096 + transport.HeaderSize // one wire packet
	cases := []struct {
		name    string
		start   float64 // cwnd before the decrease
		timeout bool    // OnTimeout vs over-target OnAck MD
		want    float64
	}{
		{"timeout-above-floor", 10 * mss, true, 5 * mss},
		{"timeout-hits-default-floor", 1.5 * mss, true, 1 * mss},
		{"md-hits-default-floor", 1.5 * mss, false, 1 * mss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := simtest.NewIncast(73, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
			rtt := in.BaseRTT(0, 4096, bw100G)
			cc := NewSwift()
			conn := start(t, in, 0, 1, 1<<20, cc)
			conn.SetCwnd(tc.start)
			if tc.timeout {
				cc.OnTimeout(conn)
			} else {
				// Fresh overshoot sample well past any earlier cut.
				cc.OnAck(conn, transport.AckInfo{
					RTT: rtt * 3, Bytes: mss, Now: in.Net.Now() + eventq.Second,
				})
			}
			if got := conn.Cwnd(); got != tc.want {
				t.Fatalf("cwnd after decrease = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSwiftTimeoutCountsAsCut is the timeout double-cut regression: a
// timeout's halving must count as this RTT's decrease, so the first
// over-target ACK right after it must not shrink the window again. On the
// pre-fix code OnTimeout did not record lastCut and the window was cut
// twice within one RTT.
func TestSwiftTimeoutCountsAsCut(t *testing.T) {
	in := simtest.NewIncast(74, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	rtt := in.BaseRTT(0, 4096, bw100G)
	cc := NewSwift()
	conn := start(t, in, 0, 1, 1<<20, cc)
	in.Net.Sched.RunUntil(eventq.Millisecond)

	w := conn.Cwnd()
	before := cc.Cuts // organic cuts from the live run don't matter here
	cc.OnTimeout(conn)
	if got := conn.Cwnd(); got != w/2 {
		t.Fatalf("cwnd after timeout = %v, want %v", got, w/2)
	}
	// Over-target ACK immediately after the timeout: within one RTT of the
	// halving, so no second cut.
	cc.OnAck(conn, transport.AckInfo{RTT: rtt * 3, Bytes: 4160, Now: in.Net.Now()})
	if cc.Cuts != before {
		t.Fatalf("delay MD fired %d cut(s) within one RTT of a timeout", cc.Cuts-before)
	}
	if got := conn.Cwnd(); got != w/2 {
		t.Fatalf("cwnd double-cut after timeout: %v, want %v", got, w/2)
	}
}
