package baselines

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
	"uno/internal/stats"
	"uno/internal/transport"
)

func TestDCTCPDefaults(t *testing.T) {
	in := simtest.NewIncast(24, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewDCTCP()
	conn := start(t, in, 0, 1, 1<<20, cc)
	if got, want := conn.Cwnd(), 10*float64(conn.MTUWire()); got != want {
		t.Fatalf("initial cwnd = %v, want 10 packets %v", got, want)
	}
	if cc.ssthresh != 64<<20 || cc.baseRTT != conn.Params().BaseRTT {
		t.Fatalf("ssthresh %v, base RTT %v", cc.ssthresh, cc.baseRTT)
	}
	// One fully marked round moves α by the gain g = 1/16.
	now := in.Net.Now() + eventq.Second
	cc.OnAck(conn, transport.AckInfo{Marked: true, SentAt: now, Now: now})
	if cc.Alpha() != 1.0/16 {
		t.Fatalf("alpha after one marked round = %v, want 1/16", cc.Alpha())
	}
}

func TestDCTCPSlowStartThenAI(t *testing.T) {
	in := simtest.NewIncast(20, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewDCTCP()
	conn := start(t, in, 0, 1, 32<<20, cc)
	// Slow start must open the window quickly: within 20 RTTs the flow is
	// at line rate.
	in.Net.Sched.RunUntil(200 * eventq.Microsecond)
	if conn.Cwnd() < 20*4160 {
		t.Fatalf("slow start too slow: cwnd %v", conn.Cwnd())
	}
	in.Net.Sched.RunUntil(50 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// 32 MiB at ~12.5 GB/s ≈ 2.7 ms.
	if conn.FCT() > 8*eventq.Millisecond {
		t.Fatalf("DCTCP FCT %v; poor utilization", conn.FCT())
	}
}

func TestDCTCPAlphaTracksMarking(t *testing.T) {
	in := simtest.NewIncast(21, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewDCTCP()
	conn := start(t, in, 0, 1, 1<<20, cc)
	// Synthetic rounds: fully marked traffic must drive α toward 1.
	now := in.Net.Now() + eventq.Second
	for i := 0; i < 200; i++ {
		cc.OnAck(conn, transport.AckInfo{Marked: true, Bytes: 0, SentAt: now, Now: now})
		now += 20 * eventq.Microsecond
	}
	if cc.Alpha() < 0.5 {
		t.Fatalf("alpha = %v after sustained marking", cc.Alpha())
	}
	if cc.Cuts == 0 {
		t.Fatal("no cuts despite marking")
	}
}

func TestDCTCPKeepsQueueNearThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence simulation")
	}
	// Two DCTCP flows on a RED bottleneck: the standing queue must
	// stabilize around the marking region, well below the 1 MiB cap, and
	// sharing must be fair.
	delays := []eventq.Time{eventq.Microsecond, eventq.Microsecond}
	in := simtest.NewIncast(22, bw100G, delays, simtest.PortConfig())
	var conns []*transport.Conn
	for i := range delays {
		conns = append(conns, start(t, in, i, int64(i+1), 1<<30, NewDCTCP()))
	}
	maxQ := int64(0)
	var sample func()
	sample = func() {
		if q := in.Bottleneck.QueuedBytes(); q > maxQ {
			maxQ = q
		}
		if in.Net.Now() < 10*eventq.Millisecond {
			in.Net.Sched.After(20*eventq.Microsecond, sample)
		}
	}
	in.Net.Sched.Schedule(2*eventq.Millisecond, sample)
	rs := simtest.NewRateSampler(in.Net.Sched, conns, 0, eventq.Millisecond, 10*eventq.Millisecond)
	in.Net.Sched.RunUntil(10 * eventq.Millisecond)

	if maxQ >= 1<<20 {
		t.Fatalf("queue hit capacity: %d", maxQ)
	}
	rates := rs.FinalRates(5, 10)
	if j := stats.JainIndex(rates); j < 0.9 {
		t.Fatalf("DCTCP fairness %v (rates %v)", j, rates)
	}
	if total := rates[0] + rates[1]; total < 0.7*12.5e9 {
		t.Fatalf("utilization %v B/s too low", total)
	}
}

func TestDCTCPTimeoutEntersSlowStart(t *testing.T) {
	in := simtest.NewIncast(23, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewDCTCP()
	conn := start(t, in, 0, 1, 1<<20, cc)
	in.Net.Sched.RunUntil(100 * eventq.Microsecond)
	cc.OnTimeout(conn)
	if conn.Cwnd() != float64(conn.MTUWire()) {
		t.Fatalf("cwnd after RTO = %v", conn.Cwnd())
	}
	if cc.ssthresh <= float64(conn.MTUWire()) {
		t.Fatalf("ssthresh %v not preserved", cc.ssthresh)
	}
}
