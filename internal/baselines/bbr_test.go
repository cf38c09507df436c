package baselines

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
	"uno/internal/transport"
)

// TestBBRTimeoutResetsRoundState forces a timeout mid-round and pins the
// restart semantics. On the pre-fix code OnTimeout reset only the phase
// machine and full-pipe detector: the first post-timeout bandwidth sample
// folded pre-timeout acked bytes over an inflated elapsed window, and the
// 10-round max filter kept a stale high btlBw pinning the pacing rate at
// pre-loss bandwidth throughout the restart.
func TestBBRTimeoutResetsRoundState(t *testing.T) {
	in := simtest.NewIncast(53, bw100G, []eventq.Time{100 * eventq.Microsecond}, simtest.PortConfig())
	rtt := in.BaseRTT(0, 4096, bw100G)
	cc := NewBBR()
	conn := start(t, in, 0, 1, 8<<20, cc)
	in.Net.Sched.RunUntil(2 * eventq.Millisecond)

	// Mid-round snapshot: a fat round in progress plus a stale, absurdly
	// high delivery-rate sample dominating the max filter.
	cc.pushBwSample(1e12)
	cc.roundBytes = 500 << 20
	cc.roundStart = 0
	rounds := cc.Rounds

	cc.OnTimeout(conn)

	// The minimal model BBR must fall back to: 10 packets per BaseRTT
	// (what Init seeds before any bandwidth sample exists).
	wantInit := 10 * float64(conn.MTUWire()) / rtt.Seconds()
	for _, chk := range []struct {
		name string
		ok   bool
	}{
		{"round bytes cleared", cc.roundBytes == 0},
		{"round clock restarted", cc.roundStart == conn.Now()},
		{"max filter emptied", cc.bwCount == 0 && cc.bwHead == 0},
		{"btlBw back to the initial model", cc.btlBw == wantInit},
		{"phase back to startup", cc.phase == bbrStartup},
	} {
		if !chk.ok {
			t.Errorf("after timeout: %s failed (%+v)", chk.name, cc)
		}
	}

	// First post-timeout round: exactly one ACK crossing the round
	// boundary. Its sample must cover only post-timeout bytes — on the
	// pre-fix code this folded the 500 MiB of pre-timeout state (and the
	// stale 1e12 filter entry kept btlBw there regardless).
	now := conn.Now()
	cc.OnAck(conn, transport.AckInfo{Bytes: 4160, RTT: rtt, Now: now + 2*rtt})
	if cc.Rounds != rounds+1 {
		t.Fatalf("post-timeout round did not complete: rounds %d → %d", rounds, cc.Rounds)
	}
	if cc.btlBw >= 1e9 {
		t.Fatalf("post-timeout btlBw %v B/s still reflects pre-timeout state", cc.btlBw)
	}
}
