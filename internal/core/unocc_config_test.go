package core

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
)

// TestGentleFloorDefault: consecutive phantom-only epochs apply one
// "×0.3" gentle step and then hold MD_scale at gentleFloor instead of
// decaying it toward zero (EXPERIMENTS.md deviation 3).
func TestGentleFloorDefault(t *testing.T) {
	in := simtest.NewIncast(43, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT)
	conn := startFlow(t, in, 0, 1, 1<<20, cc, nil)
	now := in.Net.Now()
	for i := 1; i <= 4; i++ {
		cc.epochAcks, cc.epochMarked, cc.minRelDelay = 1, 1, phantomDelayThresh
		now += eventq.Millisecond
		cc.onEpoch(conn, now)
		if cc.GentleMDs != i || cc.mdScale != gentleFloor {
			t.Fatalf("epoch %d: %d gentle MDs, MD_scale %v; want %d and the floor %v",
				i, cc.GentleMDs, cc.mdScale, i, gentleFloor)
		}
	}
	// Just above the threshold the epoch counts as physical congestion.
	cc.epochAcks, cc.epochMarked, cc.minRelDelay = 1, 1, phantomDelayThresh+1
	cc.onEpoch(conn, now+eventq.Millisecond)
	if cc.mdScale != 1 || cc.GentleMDs != 4 {
		t.Fatalf("delay above phantomDelayThresh: MD_scale %v, %d gentle MDs", cc.mdScale, cc.GentleMDs)
	}
}

func TestPacingEnabledByDefault(t *testing.T) {
	in := simtest.NewIncast(40, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT)
	conn := startFlow(t, in, 0, 1, 1<<20, cc, nil)
	if conn.PacingRate() <= 0 {
		t.Fatal("UnoCC did not program pacing")
	}
	// Pacing tracks pacingGain × cwnd / RTT.
	want := pacingGain * 8 * conn.Cwnd() / cc.Config().BaseRTT.Seconds()
	got := conn.PacingRate()
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("pacing %v, want ≈%v", got, want)
	}
}

func TestRampTelemetryFiresOnRecovery(t *testing.T) {
	// Collapse the window far below ssthresh, then run cleanly: the
	// recovery ramp must fire and restore throughput quickly.
	in := simtest.NewIncast(42, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	intraRTT := in.BaseRTT(0, 4096, bw100G)
	cc := ccFor(in, 0, intraRTT)
	conn := startFlow(t, in, 0, 1, 64<<20, cc, nil)
	in.Net.Sched.RunUntil(200 * eventq.Microsecond)
	// Simulate a deep external collapse.
	conn.SetCwnd(float64(conn.MTUWire()))
	before := cc.Ramps
	in.Net.Sched.RunUntil(3 * eventq.Millisecond)
	if cc.Ramps <= before {
		t.Fatal("recovery ramp never fired after a collapse")
	}
	if conn.Cwnd() < cc.Config().BDP/4 {
		t.Fatalf("window did not recover: %v of BDP %v", conn.Cwnd(), cc.Config().BDP)
	}
}

func TestUnoCCNameAndConfigRoundTrip(t *testing.T) {
	cc := NewUnoCC(CCConfig{BDP: 2e6, IntraBDP: 1e5, BaseRTT: 20 * eventq.Microsecond})
	if cc.Name() != "unocc" {
		t.Fatalf("name = %q", cc.Name())
	}
	got := cc.Config()
	if got.BDP != 2e6 || got.IntraBDP != 1e5 || got.EpochPeriod != got.BaseRTT {
		t.Fatalf("config round trip: %+v", got)
	}
}

func TestSystemDefaults(t *testing.T) {
	sys := System{LinkBps: 100e9, IntraRTT: 14 * eventq.Microsecond}
	params, _, _ := sys.Policies(true, 2*eventq.Millisecond)
	// EC in the transport's (8,2) blocks, whose NACK timer is the flow's
	// BaseRTT.
	if !params.EC {
		t.Fatalf("EC default = %+v", params)
	}
	if params.BaseRTT != 2*eventq.Millisecond {
		t.Fatalf("base RTT = %v", params.BaseRTT)
	}
	// Reordering tolerance for subflow spraying.
	if params.DupAckThresh != 24 {
		t.Fatalf("dup threshold = %d", params.DupAckThresh)
	}
}
