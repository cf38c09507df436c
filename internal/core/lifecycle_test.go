package core

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
)

// TestQuickAdaptTimerEndsWithFlow: UnoCC arms its Quick Adapt tick at the
// first ACK, and before flows had a lifecycle the tick fired once more after
// the flow had completed — a dead event per flow. The scenario is one
// 8-packet flow on the incast star; the fabric digest is the one the
// dead-tick code produced and the event count is its count less that tick,
// less the 25 transmit-done events of hops through an idle port, which the
// serialization-start hand-off no longer schedules.
func TestQuickAdaptTimerEndsWithFlow(t *testing.T) {
	const (
		wantDigest = 0x8f08f7eed7c9005b
		wantEvents = 73 - 1 - 25
	)
	in := simtest.NewIncast(5, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	digest := netsim.NewDigestObserver(in.Net)
	in.Net.Observer = digest
	cc := ccFor(in, 0, in.BaseRTT(0, 4096, bw100G))
	conn := startFlow(t, in, 0, 1, 8*4096, cc, nil)
	in.Net.Sched.Run()

	if !conn.Completed() {
		t.Fatal("flow incomplete")
	}
	if got := digest.Sum(); got != wantDigest {
		t.Errorf("digest %#x, want %#x", got, uint64(wantDigest))
	}
	if got := in.Net.Sched.Executed(); got != wantEvents {
		t.Errorf("%d events executed, want %d", got, wantEvents)
	}
	if in.Net.Sched.Pending() != 0 {
		t.Errorf("%d events pending after the flow completed", in.Net.Sched.Pending())
	}
	if cc.qaTimer == nil || cc.qaTimer.Pending() {
		t.Error("Quick Adapt timer never armed, or still armed after completion")
	}
}

// TestConfigPoolSharesEqualConfigs: controllers built through one pool share
// one defaulted CCConfig per distinct configuration, and it is the same
// configuration NewUnoCC would have given each of them privately.
func TestConfigPoolSharesEqualConfigs(t *testing.T) {
	intra := CCConfig{BDP: 175e3, IntraBDP: 175e3, BaseRTT: 14 * eventq.Microsecond}
	inter := CCConfig{BDP: 25e6, IntraBDP: 175e3, BaseRTT: 2 * eventq.Millisecond, EpochPeriod: 14 * eventq.Microsecond}
	var pool ConfigPool
	a, b, c := pool.NewUnoCC(intra), pool.NewUnoCC(intra), pool.NewUnoCC(inter)
	if a.cfg != b.cfg {
		t.Error("equal configurations not shared")
	}
	if a.cfg == c.cfg {
		t.Error("different configurations shared")
	}
	if len(pool.m) != 2 {
		t.Errorf("pool holds %d configurations, want 2", len(pool.m))
	}
	if a.Config() != NewUnoCC(intra).Config() || c.Config() != NewUnoCC(inter).Config() {
		t.Error("pooled configuration differs from the private one")
	}
	if a == b || a.mdScale != 1 {
		t.Error("controllers must stay per flow, initialised like NewUnoCC's")
	}
}
