package core

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/transport"
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
	if cc.conn == nil || cc.qaTimer.Bound() {
		t.Error("Quick Adapt timer never bound, or still bound after completion")
	}
}

// TestPoolSharesEqualConfigs: controllers built through one pool share one
// defaulted CCConfig per distinct configuration, and it is the same
// configuration NewUnoCC would have given each of them privately.
func TestPoolSharesEqualConfigs(t *testing.T) {
	intra := CCConfig{BDP: 175e3, IntraBDP: 175e3, BaseRTT: 14 * eventq.Microsecond}
	inter := CCConfig{BDP: 25e6, IntraBDP: 175e3, BaseRTT: 2 * eventq.Millisecond, EpochPeriod: 14 * eventq.Microsecond}
	var pool Pool
	a, b, c := pool.NewUnoCC(intra), pool.NewUnoCC(intra), pool.NewUnoCC(inter)
	if a.cfg != b.cfg {
		t.Error("equal configurations not shared")
	}
	if a.cfg == c.cfg {
		t.Error("different configurations shared")
	}
	if len(pool.configs) != 2 {
		t.Errorf("pool holds %d configurations, want 2", len(pool.configs))
	}
	if a.Config() != NewUnoCC(intra).Config() || c.Config() != NewUnoCC(inter).Config() {
		t.Error("pooled configuration differs from the private one")
	}
	if a == b || a.mdScale != 1 {
		t.Error("controllers must stay per flow, initialised like NewUnoCC's")
	}
}

// TestPoolRecycledPoliciesRunLikeFresh: the controller and balancer a
// finished flow gave back run the next flow exactly as fresh ones would —
// same fabric digest, same events, same result — because taking them from
// the pool resets them whole. A wrapped policy is not taken back: its
// wrapper's owner may still read it.
func TestPoolRecycledPoliciesRunLikeFresh(t *testing.T) {
	type outcome struct {
		digest, events uint64
		stats          transport.ConnStats
		fct            eventq.Time
	}
	run := func(recycle bool) outcome {
		in := simtest.NewIncast(5, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
		digest := netsim.NewDigestObserver(in.Net)
		in.Net.Observer = digest
		pool := new(Pool)
		baseRTT := in.BaseRTT(0, 4096, bw100G)
		sys := System{LinkBps: bw100G, IntraRTT: baseRTT, Pool: pool}
		var last *transport.Conn
		var reused bool
		for id := int64(1); id <= 2; id++ {
			params, cc, lb := sys.Policies(false, baseRTT)
			if id == 2 && recycle {
				reused = len(pool.ccs) == 0 && len(pool.lbs) == 0
			}
			flow := &transport.Flow{ID: netsimFlowID(id), Src: in.Senders[0], Dst: in.Recv, Size: 64 * 4096, Start: in.Net.Now()}
			last = transport.MustStart(in.SenderEps[0], in.RecvEp, flow, params, cc, lb, func(c *transport.Conn) {
				if recycle {
					pool.Recycle(c.Policies())
				}
			})
			in.Net.Sched.Run()
		}
		if recycle && !reused {
			t.Fatal("the second flow did not take the first one's policies")
		}
		return outcome{digest.Sum(), in.Net.Sched.Executed(), last.Stats(), last.FCT()}
	}
	if fresh, recycled := run(false), run(true); fresh != recycled {
		t.Errorf("recycled policies changed the run:\n fresh    %+v\n recycled %+v", fresh, recycled)
	}

	var pool Pool
	cc := pool.NewUnoCC(CCConfig{BDP: 1e5, IntraBDP: 1e5, BaseRTT: eventq.Microsecond})
	pool.Recycle(struct{ transport.CongestionControl }{cc}, &transport.FixedEntropy{})
	if len(pool.ccs) != 0 || len(pool.lbs) != 0 {
		t.Error("the pool took back a wrapped controller or a foreign balancer")
	}
}
