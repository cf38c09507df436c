package baselines

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
	"uno/internal/transport"
)

func TestBBRStartupExitsToDrainThenProbe(t *testing.T) {
	in := simtest.NewIncast(50, bw100G, []eventq.Time{50 * eventq.Microsecond}, simtest.PortConfig())
	cc := NewBBR()
	conn := start(t, in, 0, 1, 64<<20, cc)
	if cc.phase != bbrStartup {
		t.Fatal("BBR must begin in startup")
	}
	// Once bandwidth stops growing, the state machine must have moved
	// through Drain into ProbeBW.
	in.Net.Sched.RunUntil(10 * eventq.Millisecond)
	if cc.phase != bbrProbeBW {
		t.Fatalf("phase = %d after 10ms, want ProbeBW", cc.phase)
	}
	// The bandwidth estimate should be near the 100 Gb/s line rate
	// (bytes/s), within the gain-cycle's wobble.
	if cc.btlBw < 0.5*12.5e9 || cc.btlBw > 1.3*12.5e9 {
		t.Fatalf("btlBw estimate %v B/s", cc.btlBw)
	}
	_ = conn
}

func TestBBRRtPropTracksMinimum(t *testing.T) {
	in := simtest.NewIncast(51, bw100G, []eventq.Time{100 * eventq.Microsecond}, simtest.PortConfig())
	rtt := in.BaseRTT(0, 4096, bw100G)
	cc := NewBBR()
	// The flow's Params carry a deliberately bad base RTT, which seeds
	// rtProp.
	flow := &transport.Flow{ID: 1, Src: in.Senders[0], Dst: in.Recv, Size: 16 << 20}
	params := transport.Params{MTU: 4096, BaseRTT: 10 * eventq.Millisecond}
	if _, err := transport.Start(in.SenderEps[0], in.RecvEp, flow, params, cc, &transport.FixedEntropy{}, nil); err != nil {
		t.Fatal(err)
	}
	if cc.rtProp != params.BaseRTT {
		t.Fatalf("rtProp seeded at %v, want the Params base RTT %v", cc.rtProp, params.BaseRTT)
	}
	in.Net.Sched.RunUntil(20 * eventq.Millisecond)
	// rtProp must have converged down to the true base RTT.
	if cc.rtProp > rtt*12/10 {
		t.Fatalf("rtProp %v did not track true RTT %v", cc.rtProp, rtt)
	}
}

func TestBBRProbeGainCycling(t *testing.T) {
	in := simtest.NewIncast(52, bw100G, []eventq.Time{100 * eventq.Microsecond}, simtest.PortConfig())
	cc := NewBBR()
	conn := start(t, in, 0, 1, 128<<20, cc)
	// Observe the pacing rate over a few ProbeBW cycles: it must vary
	// (probe/drain phases) rather than stay constant.
	seen := map[int]bool{}
	var sample func()
	sample = func() {
		if cc.phase == bbrProbeBW {
			seen[cc.probeIdx] = true
		}
		if in.Net.Now() < 15*eventq.Millisecond {
			in.Net.Sched.After(100*eventq.Microsecond, sample)
		}
	}
	in.Net.Sched.Schedule(eventq.Millisecond, sample)
	in.Net.Sched.RunUntil(15 * eventq.Millisecond)
	if len(seen) < 4 {
		t.Fatalf("probe cycle visited only %d phases: %v", len(seen), seen)
	}
	_ = conn
}
