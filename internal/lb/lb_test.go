package lb

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/transport"
)

const bw100G = int64(100e9)

func startParallelFlow(t *testing.T, p *simtest.Parallel, id int64, size int64,
	lb transport.PathSelector) *transport.Conn {
	t.Helper()
	flow := &transport.Flow{ID: netsim.FlowID(id), Src: p.A, Dst: p.B, Size: size}
	params := transport.Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond, DupAckThresh: 64}
	conn, err := transport.Start(p.EpA, p.EpB, flow, params,
		&transport.FixedWindow{Window: 1 << 20}, lb, nil)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestRPSSpreadsEveryPath(t *testing.T) {
	p := simtest.NewParallel(1, bw100G, 8, eventq.Microsecond)
	conn := startParallelFlow(t, p, 1, 256*4096, &RPS{})
	p.Net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	// 256 packets sprayed over 8 paths: all paths used, roughly evenly.
	for i, l := range p.Paths {
		d := l.Stats().Delivered
		if d == 0 {
			t.Fatalf("path %d unused by RPS", i)
		}
		if d < 16 || d > 48 {
			t.Errorf("path %d carried %d of 256 packets; spray is skewed", i, d)
		}
	}
}

func TestFixedEntropySticksToOnePath(t *testing.T) {
	p := simtest.NewParallel(2, bw100G, 8, eventq.Microsecond)
	conn := startParallelFlow(t, p, 1, 64*4096, &transport.FixedEntropy{})
	p.Net.Sched.RunUntil(eventq.Second)
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	used := 0
	for _, l := range p.Paths {
		if l.Stats().Delivered > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("ECMP flow used %d paths, want 1", used)
	}
}

// TestPLBDefaults pins PLB's constants through behaviour: a round exactly
// plbMarkFraction marked counts as congested, one ACK short of it does
// not, and the plbCongestedRounds-th congested round in a row repaths.
func TestPLBDefaults(t *testing.T) {
	p := simtest.NewParallel(3, bw100G, 2, eventq.Microsecond)
	plb := &PLB{}
	conn := startParallelFlow(t, p, 1, 4096, plb) // live, never run: its first round is one BaseRTT

	now := p.Net.Now()
	round := func(marked, clean int) {
		for i := 0; i < clean; i++ {
			plb.OnAck(conn, transport.AckInfo{Now: now}, -1, 0)
		}
		for i := 0; i < marked-1; i++ {
			plb.OnAck(conn, transport.AckInfo{Marked: true, Now: now}, -1, 0)
		}
		now += 20 * eventq.Microsecond
		plb.OnAck(conn, transport.AckInfo{Marked: true, Now: now}, -1, 0)
	}
	// 3 marked of 7 is under half: the streak never starts.
	for i := 0; i < plbCongestedRounds; i++ {
		round(3, 4)
	}
	if plb.Repaths != 0 || plb.badRounds != 0 {
		t.Fatalf("rounds under plbMarkFraction counted as congested (repaths %d, streak %d)", plb.Repaths, plb.badRounds)
	}
	// 4 marked of 8 is exactly half: congested.
	for i := 0; i < plbCongestedRounds-1; i++ {
		round(4, 4)
	}
	if plb.Repaths != 0 || plb.badRounds != plbCongestedRounds-1 {
		t.Fatalf("repaths %d, streak %d before the last congested round", plb.Repaths, plb.badRounds)
	}
	round(4, 4)
	if plb.Repaths != 1 {
		t.Fatalf("repaths = %d after %d congested rounds, want 1", plb.Repaths, plbCongestedRounds)
	}
}

// plbRounds drives PLB, on a flow started but never run, with synthetic
// rounds: one per entry of pattern, two ACKs, both marked or both clean, the
// second landing past the round boundary (one BaseRTT on) so it classifies.
func plbRounds(plb *PLB, conn *transport.Conn, start eventq.Time, pattern []bool) {
	now := start
	round := 20 * eventq.Microsecond
	for _, marked := range pattern {
		plb.OnAck(conn, transport.AckInfo{Marked: marked, Now: now}, -1, 0)
		now += round
		plb.OnAck(conn, transport.AckInfo{Marked: marked, Now: now}, -1, 0)
	}
}

func TestPLBRepathsAfterCongestedRounds(t *testing.T) {
	p := simtest.NewParallel(4, bw100G, 8, eventq.Microsecond)
	plb := &PLB{}
	conn := startParallelFlow(t, p, 1, 4096, plb)

	plbRounds(plb, conn, p.Net.Now(), []bool{true, true, true})
	if plb.Repaths != 1 {
		t.Fatalf("repaths = %d after 3 congested rounds, want 1", plb.Repaths)
	}
}

func TestPLBStaysOnCleanPath(t *testing.T) {
	p := simtest.NewParallel(5, bw100G, 8, eventq.Microsecond)
	plb := &PLB{}
	conn := startParallelFlow(t, p, 1, 4096, plb)

	plbRounds(plb, conn, p.Net.Now(), make([]bool, 20)) // 20 clean rounds
	if plb.Repaths != 0 {
		t.Fatalf("PLB repathed %d times on an unmarked flow", plb.Repaths)
	}
}

func TestPLBCongestionStreakResetByCleanRound(t *testing.T) {
	p := simtest.NewParallel(6, bw100G, 8, eventq.Microsecond)
	plb := &PLB{}
	conn := startParallelFlow(t, p, 1, 4096, plb)

	// Two congested, one clean (streak resets), two congested: no repath.
	plbRounds(plb, conn, p.Net.Now(), []bool{true, true, false, true, true})
	if plb.Repaths != 0 {
		t.Fatalf("repaths = %d; clean round should reset the streak", plb.Repaths)
	}
	// One more congested round completes a fresh streak of three.
	plb.OnAck(conn, transport.AckInfo{Marked: true, Now: p.Net.Now() + eventq.Second}, -1, 0)
	if plb.Repaths != 1 {
		t.Fatalf("repaths = %d after 3 fresh congested rounds", plb.Repaths)
	}
}

func TestPLBRepathsOnTimeout(t *testing.T) {
	p := simtest.NewParallel(7, bw100G, 8, eventq.Microsecond)
	plb := &PLB{}
	conn := startParallelFlow(t, p, 1, 4096, plb)
	p.Net.Sched.RunUntil(eventq.Second)
	plb.OnTimeout(conn)
	if plb.Repaths != 1 {
		t.Fatalf("repaths = %d after RTO", plb.Repaths)
	}
}

func TestPLBSurvivesPathFailureViaRTORepath(t *testing.T) {
	// PLB pins one path; failing it forces RTO-driven repathing. The flow
	// must eventually land on a live path and finish.
	p := simtest.NewParallel(8, bw100G, 2, eventq.Microsecond)
	plb := &PLB{}
	flow := &transport.Flow{ID: 1, Src: p.A, Dst: p.B, Size: 64 * 4096}
	// BaseRTT puts the RTO floor at 100 µs.
	params := transport.Params{MTU: 4096, BaseRTT: 25 * eventq.Microsecond, DupAckThresh: 64}
	conn, err := transport.Start(p.EpA, p.EpB, flow, params,
		&transport.FixedWindow{Window: 64 * 4160}, plb, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Net.Sched.Schedule(2*eventq.Microsecond, func() {
		// Fail both paths' twin so only path 1 survives... fail path 0;
		// with 2 paths a random re-hash lands on the live one within a
		// few tries.
		p.Paths[0].SetUp(false)
	})
	p.Net.Sched.RunUntil(5 * eventq.Second)
	if !conn.Completed() {
		t.Fatalf("PLB flow did not survive path failure (repaths=%d stats=%+v)",
			plb.Repaths, conn.Stats())
	}
}
