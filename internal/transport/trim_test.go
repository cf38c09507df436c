package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// trimDumbbell narrows the bottleneck queue and enables trimming so an
// initial burst must overflow.
func trimDumbbell(seed uint64) *dumbbell {
	net := netsim.New(seed)
	d := &dumbbell{net: net}
	d.s1 = netsim.NewSwitch(net, "s1", nil)
	d.s2 = netsim.NewSwitch(net, "s2", nil)
	d.a = netsim.NewHost(net, "a", 0)
	d.b = netsim.NewHost(net, "b", 0)
	d.a.AttachNIC(d.s1, gbps100, linkDly)
	d.b.AttachNIC(d.s2, gbps100, linkDly)

	trimCfg := netsim.PortConfig{QueueCap: 8 * 4160, ControlBypass: true, Trim: true}
	_, d.mid = d.s1.AddPort(d.s2, 10e9, linkDly, trimCfg) // slow bottleneck
	d.s1.AddPort(d.a, gbps100, linkDly, testPort())
	d.s2.AddPort(d.b, gbps100, linkDly, testPort())
	_, d.back = d.s2.AddPort(d.s1, gbps100, linkDly, testPort())
	d.s1.SetRouter(mapRouter{d.a.ID(): 1, d.b.ID(): 0})
	d.s2.SetRouter(mapRouter{d.b.ID(): 0, d.a.ID(): 1})
	d.epA = NewEndpoint(d.a)
	d.epB = NewEndpoint(d.b)
	return d
}

func TestTrimNotificationDrivesRetransmission(t *testing.T) {
	d := trimDumbbell(1)
	// A 64-packet burst into an 8-packet queue at a 10:1 bandwidth
	// mismatch: most packets are trimmed; the trim echoes must recover
	// everything without waiting for RTOs.
	params := Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 64 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("flow did not complete")
	}
	st := conn.Stats()
	if st.TrimNotices == 0 {
		t.Fatal("no trim notices despite forced overflow")
	}
	if st.Timeouts != 0 {
		t.Fatalf("RTOs fired (%d); trimming should have recovered first", st.Timeouts)
	}
	if d.epB.RecvStats().TrimmedPkts == 0 {
		t.Fatal("receiver saw no trimmed packets")
	}
	if st.PktsRetrans == 0 {
		t.Fatal("no retransmissions despite trims")
	}
}

func TestTrimNoticeIgnoredForSatisfiedBlocks(t *testing.T) {
	// With EC enabled, trims of packets in already-satisfied blocks must
	// not trigger retransmissions.
	d := trimDumbbell(2)
	params := Params{MTU: 4096, BaseRTT: 10 * eventq.Microsecond, EC: true}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 32 * 4096}
	conn := d.run(flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{})
	if !conn.Completed() {
		t.Fatal("EC flow did not complete under trimming")
	}
	// All blocks eventually decodable; trims recovered by block machinery
	// or retransmission, never deadlocking.
	if conn.InFlight() != 0 {
		t.Fatalf("inflight bytes leak: %d", conn.InFlight())
	}
}
