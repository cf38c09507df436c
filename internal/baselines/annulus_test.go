package baselines

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/transport"
)

func TestAnnulusDelegatesToInner(t *testing.T) {
	in := simtest.NewIncast(30, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	inner := NewMPRDMA()
	cc := NewAnnulus(inner)
	if cc.Name() != "mprdma+annulus" {
		t.Fatalf("name = %q", cc.Name())
	}
	conn := start(t, in, 0, 1, 4<<20, cc)
	in.Net.Sched.RunUntil(20 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("wrapped controller did not drive the flow to completion")
	}
}

func TestAnnulusCutsOnCnm(t *testing.T) {
	in := simtest.NewIncast(31, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewAnnulus(&transport.FixedWindow{Window: 100 * 4160})
	conn := start(t, in, 0, 1, 1<<20, cc)

	before := conn.Cwnd()
	cc.OnCnm(conn, 0.5)
	if got := conn.Cwnd(); got >= before {
		t.Fatalf("cwnd %v not cut by CNM", got)
	}
	if conn.Cwnd() < before*0.74 || conn.Cwnd() > before*0.76 {
		t.Fatalf("fb=0.5 should cut 25%%: %v → %v", before, conn.Cwnd())
	}
	// Rate limiting: an immediate second CNM is ignored.
	mid := conn.Cwnd()
	cc.OnCnm(conn, 1.0)
	if conn.Cwnd() != mid {
		t.Fatal("CNM reaction not rate-limited")
	}
	if cc.Cuts != 1 {
		t.Fatalf("cuts = %d", cc.Cuts)
	}
	capAfterCut := cc.CapBps()

	// The cap recovers multiplicatively while the fast loop is quiet...
	in.Net.Sched.RunUntil(in.Net.Now() + eventq.Millisecond)
	cc.OnAck(conn, transport.AckInfo{Now: in.Net.Now()})
	grown := cc.CapBps()
	if grown <= capAfterCut {
		t.Fatalf("cap did not recover: %v → %v", capAfterCut, grown)
	}
	// ...and a clamped fb=1 CNM halves it again.
	cc.OnCnm(conn, 42)
	if got := cc.CapBps(); got < grown*0.49 || got > grown*0.51 {
		t.Fatalf("clamped fb=1 should halve the cap: %v → %v", grown, got)
	}
	_ = mid
}

func TestQCNGeneratesCnms(t *testing.T) {
	// A standing queue above the QCN threshold must emit CNMs back to the
	// sender, and the transport must count them.
	net := netsim.New(32)
	sw := netsim.NewSwitch(net, "sw", nil)
	a := netsim.NewHost(net, "a", 0)
	b := netsim.NewHost(net, "b", 0)
	a.AttachNIC(sw, bw100G, eventq.Microsecond)
	// 320 KiB: the QCN threshold, a fifth of the queue, is 64 KiB.
	cfg := netsim.PortConfig{QueueCap: 320 << 10, ControlBypass: true, QCN: true}
	sw.AddPort(b, 10e9, eventq.Microsecond, cfg) // 10:1 bottleneck
	sw.AddPort(a, bw100G, eventq.Microsecond, simtest.PortConfig())
	b.AttachNIC(sw, bw100G, eventq.Microsecond)
	sw.SetRouter(simtest.DstRouter{b.ID(): 0, a.ID(): 1})
	epA, epB := transport.NewEndpoint(a), transport.NewEndpoint(b)

	flow := &transport.Flow{ID: 1, Src: a, Dst: b, Size: 4 << 20}
	params := transport.Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond}
	cc := NewAnnulus(&transport.FixedWindow{Window: 1 << 20})
	conn, err := transport.Start(epA, epB, flow, params, cc, &transport.FixedEntropy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Sched.RunUntil(20 * eventq.Millisecond)
	if sw.Port(0).Stats().CnmsSent == 0 {
		t.Fatal("QCN port sent no CNMs despite a standing queue")
	}
	if conn.Stats().CnmsReceived == 0 {
		t.Fatal("sender received no CNMs")
	}
	if cc.Cuts == 0 {
		t.Fatal("Annulus never reacted to CNMs")
	}
}

func TestCnmIgnoredByPlainControllers(t *testing.T) {
	// Controllers that don't implement CnmReceiver must be unaffected.
	in := simtest.NewIncast(33, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	cc := NewMPRDMA()
	conn := start(t, in, 0, 1, 1<<20, cc)
	w := conn.Cwnd()
	in.Senders[0].HandlePacket(&netsim.Packet{
		Type: netsim.Cnm, Flow: 1, Feedback: 1, Size: netsim.AckSize,
	})
	if conn.Cwnd() != w {
		t.Fatal("plain controller reacted to CNM")
	}
	if conn.Stats().CnmsReceived != 1 {
		t.Fatalf("CNM not counted: %+v", conn.Stats())
	}
}
