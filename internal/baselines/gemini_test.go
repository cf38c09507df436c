package baselines

// Dedicated unit tests for the Gemini controller: table-driven checks of
// the per-ACK additive-increase decision, the per-round multiplicative
// decrease, and the window clamp edges. The scenario-level behaviour
// (utilization, fairness, WAN delay signal) lives in baselines_test.go;
// here each rule is pinned in isolation with hand-computable numbers.

import (
	"math"
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
	"uno/internal/transport"
)

// geminiFixture returns a live Conn (flow started, clock at 0) plus the
// config under test. The conn's own controller is a throwaway; tests drive
// the Gemini under test against the conn directly.
func geminiFixture(t *testing.T) (*transport.Conn, GeminiConfig) {
	t.Helper()
	in := simtest.NewIncast(3, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	conn := start(t, in, 0, 1, 64<<20, NewMPRDMA())
	cfg := GeminiConfig{
		BDP: 1e6, IntraBDP: 7e5, BaseRTT: 10 * eventq.Microsecond,
	}
	return conn, cfg
}

func approx(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

func TestGeminiOnAckWindowTable(t *testing.T) {
	conn, cfg := geminiFixture(t)
	const startCwnd = 5e5
	alpha := 0.001 * cfg.BDP
	grown := startCwnd + alpha*4160/startCwnd

	cases := []struct {
		name    string
		interDC bool
		ack     transport.AckInfo
		want    float64
	}{
		{"unmarked ack grows by alpha*bytes/cwnd", false,
			transport.AckInfo{Bytes: 4160, SentAt: -1}, grown},
		{"marked ack does not grow", false,
			transport.AckInfo{Bytes: 4160, Marked: true, SentAt: -1}, startCwnd},
		{"duplicate ack (zero bytes) does not grow", false,
			transport.AckInfo{Bytes: 0, SentAt: -1}, startCwnd},
		{"WAN delay above threshold suppresses growth", true,
			transport.AckInfo{Bytes: 4160, RTT: cfg.BaseRTT + cfg.BaseRTT/5, SentAt: -1}, startCwnd},
		{"WAN delay below threshold still grows", true,
			transport.AckInfo{Bytes: 4160, RTT: cfg.BaseRTT + cfg.BaseRTT/20, SentAt: -1}, grown},
		{"intra-DC config ignores delay signal", false,
			transport.AckInfo{Bytes: 4160, RTT: 10 * cfg.BaseRTT, SentAt: -1}, grown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.InterDC = tc.interDC
			cc := NewGemini(c)
			cc.Init(conn)
			conn.SetCwnd(startCwnd)
			cc.OnAck(conn, tc.ack)
			if got := conn.Cwnd(); !approx(got, tc.want) {
				t.Fatalf("cwnd = %v, want %v", got, tc.want)
			}
			if cc.Rounds != 0 {
				t.Fatalf("round fired from a pre-round ack (SentAt < roundStart)")
			}
		})
	}
}

func TestGeminiGrowthClampsAtMaxCwnd(t *testing.T) {
	conn, cfg := geminiFixture(t)
	cc := NewGemini(cfg)
	cc.Init(conn)
	limit := 2 * cfg.BDP
	conn.SetCwnd(limit - 0.01)
	cc.OnAck(conn, transport.AckInfo{Bytes: 1 << 20, SentAt: -1})
	if got := conn.Cwnd(); got != limit {
		t.Fatalf("cwnd = %v, want clamp at two BDPs %v", got, limit)
	}
}

func TestGeminiRoundMDTable(t *testing.T) {
	conn, cfg := geminiFixture(t)
	// Every case starts from a fully marked history (ewmaFrac = 1), so after
	// a round with congestion fraction frac the average is
	// 1 - geminiEWMAGain*(1-frac) and md is that times 4K/(K+BDP).
	ewma := func(frac float64) float64 { return 1 - geminiEWMAGain*(1-frac) }
	cases := []struct {
		name       string
		k, bdp     float64 // K = IntraBDP/7
		marked     int
		unmarked   int
		wantFactor float64 // cwnd multiplier applied by the round
		wantMDs    int
	}{
		// The closing zero-byte ack counts as unmarked, so with m marked
		// and u unmarked feeds the fraction is m/(m+u+1), and the round's
		// multiplier is 1 - min(0.5, ewma*4K/(K+BDP)).
		{"half marked hits the 0.5 md cap", 1e6, 1e6, 2, 1, 0.5, 1},
		{"all marked hits the 0.5 md cap", 1e6, 1e6, 4, 0, 0.5, 1},
		{"clean round leaves window alone", 1e6, 1e6, 0, 4, 1, 0},
		{"small K damps the decrease", 1e5, 1e6, 4, 0, 1 - ewma(0.8)*4*1e5/(1.1e6), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.IntraBDP, c.BDP = geminiKDivisor*tc.k, tc.bdp
			cc := NewGemini(c)
			cc.Init(conn)
			cc.ewmaFrac = 1
			const w = 8e5
			conn.SetCwnd(w)
			// Feed the round's acks with SentAt = -1 (no round yet), zero
			// bytes so AI never moves the window, then close the round
			// with a final zero-byte ack whose SentAt passes roundStart.
			for i := 0; i < tc.marked; i++ {
				cc.OnAck(conn, transport.AckInfo{Marked: true, SentAt: -1})
			}
			for i := 0; i < tc.unmarked-1; i++ {
				cc.OnAck(conn, transport.AckInfo{SentAt: -1})
			}
			cc.OnAck(conn, transport.AckInfo{SentAt: conn.Now(), Now: conn.Now()})
			if cc.Rounds != 1 {
				t.Fatalf("rounds = %d, want 1", cc.Rounds)
			}
			if cc.MDs != tc.wantMDs {
				t.Fatalf("MDs = %d, want %d", cc.MDs, tc.wantMDs)
			}
			if got := conn.Cwnd(); !approx(got, w*tc.wantFactor) {
				t.Fatalf("cwnd = %v, want %v (factor %v)", got, w*tc.wantFactor, tc.wantFactor)
			}
		})
	}
}

func TestGeminiTimeoutAndFloor(t *testing.T) {
	conn, cfg := geminiFixture(t)
	cc := NewGemini(cfg)
	cc.Init(conn)
	conn.SetCwnd(1e6)
	cc.OnTimeout(conn)
	floor := float64(conn.MTUWire())
	if got := conn.Cwnd(); got != floor {
		t.Fatalf("post-timeout cwnd = %v, want one packet %v", got, floor)
	}
	// Repeated full-MD rounds can never push the window below the floor.
	cc = NewGemini(cfg)
	cc.Init(conn)
	cc.ewmaFrac = 1
	conn.SetCwnd(floor)
	for i := 0; i < 8; i++ {
		cc.OnAck(conn, transport.AckInfo{Marked: true, SentAt: conn.Now(), Now: conn.Now()})
	}
	if got := conn.Cwnd(); got < floor {
		t.Fatalf("cwnd %v fell below the one-packet floor %v", got, floor)
	}
}
