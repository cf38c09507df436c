package harness

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/workload"
)

// TestConnsSeesStartedFlows: on a one-shard Sim a flow's connection exists
// only from its start time on. Conns() used to return the nil placeholders
// it had copied at Schedule time for ever; it must show the started flows,
// through the same array as the slice Schedule returned.
func TestConnsSeesStartedFlows(t *testing.T) {
	sim := MustNewSim(3, smallTopo(), StackUno())
	perDC := sim.Topo.Cfg.HostsPerDC()
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Size: 64 << 10},
		{Src: 2, Dst: perDC + 3, Size: 64 << 10, Start: 50 * eventq.Microsecond},
		{Src: 4, Dst: 5, Size: 64 << 10, Start: 100 * eventq.Microsecond},
	}
	ret := sim.Schedule(specs)
	if got := sim.Conns(); len(got) != 3 || &got[0] != &ret[0] {
		t.Fatal("Conns() and Schedule's return value must share one backing array")
	}
	for i, c := range sim.Conns() {
		if c != nil {
			t.Fatalf("flow %d has a connection before its start time", i)
		}
	}
	sim.RunUntil(60 * eventq.Microsecond)
	if c := sim.Conns(); c[0] == nil || c[1] == nil || c[2] != nil {
		t.Fatalf("at 60us flows 0 and 1 have started and flow 2 has not: %v", c)
	}

	// A second batch grows the list into a new array: flow 2 of the first
	// batch starts afterwards and must still reach both views.
	ret2 := sim.Schedule([]workload.FlowSpec{
		{Src: 6, Dst: 7, Size: 64 << 10, Start: 80 * eventq.Microsecond},
		{Src: 8, Dst: perDC + 1, Size: 64 << 10, Start: 90 * eventq.Microsecond},
	})
	if &sim.Conns()[0] == &ret[0] {
		t.Fatal("the second Schedule must move Conns() to a new backing array")
	}
	sim.Run(100 * eventq.Millisecond)
	if sim.Pending() != 0 {
		t.Fatalf("%d flows did not complete", sim.Pending())
	}
	all := sim.Conns()
	if len(all) != 5 {
		t.Fatalf("Conns() has %d entries, want 5", len(all))
	}
	for i, c := range all {
		if c == nil || !c.Completed() || c.Stats().PktsSent == 0 {
			t.Fatalf("Conns()[%d] = %v: not the completed connection", i, c)
		}
	}
	for i, c := range ret {
		if c != all[i] {
			t.Errorf("first batch entry %d: Schedule's slice has %p, Conns() has %p", i, c, all[i])
		}
	}
	for i, c := range ret2 {
		if c != all[3+i] {
			t.Errorf("second batch entry %d: Schedule's slice has %p, Conns() has %p", i, c, all[3+i])
		}
	}
}

// TestFlowLifecycleOnEveryEngine: on one shard and on per-DC shards with one
// and two workers, a mixed workload with EC flows crossing the border both
// ways ends with both ends of every flow out of their endpoints' demux, no
// event left once the fabric has drained, and every Conn readable as a
// result handle. With per-DC shards a sender completes and is recycled on
// the source host's shard while its receiver completes and is recycled on
// the other, and pre-opened flows draw their state from both shards' free
// lists at Schedule time, which is what scripts/ci.sh runs this test under
// the race detector for.
func TestFlowLifecycleOnEveryEngine(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		sim, err := NewSimShards(11, smallTopo(), StackUno(), shards)
		if err != nil {
			t.Fatal(err)
		}
		perDC := sim.Topo.Cfg.HostsPerDC()
		// Two batches: the second starts after the first completed, so its
		// flows — pre-opened at Schedule time on per-DC shards — run on
		// the state the first batch's flows gave back.
		var specs []workload.FlowSpec
		for batch := 0; batch < 2; batch++ {
			at := sim.Now()
			n := len(specs)
			for i := 0; i < perDC; i++ {
				start := at + eventq.Time(i)*3*eventq.Microsecond
				specs = append(specs,
					workload.FlowSpec{Src: i, Dst: (i + 5) % perDC, Size: 6000, Start: start},
					workload.FlowSpec{Src: i, Dst: perDC + (i+3)%perDC, Size: 96 << 10, Start: start},
					workload.FlowSpec{Src: perDC + i, Dst: (i + 7) % perDC, Size: 40 << 10, Start: start},
				)
			}
			sim.Schedule(specs[n:])
			sim.Run(at + 200*eventq.Millisecond)
			if sim.Pending() != 0 {
				t.Fatalf("shards=%d batch %d: %d flows did not complete", shards, batch, sim.Pending())
			}
		}
		sim.Drain()
		if pending := sim.Cluster().Pending(); pending != 0 {
			t.Errorf("shards=%d: %d events left after the fabric drained", shards, pending)
		}
		for i, c := range sim.Conns() {
			id := c.Flow().ID
			if sim.Eps[specs[i].Src].Sender(id) != nil {
				t.Fatalf("shards=%d: completed flow %d still has a registered sender", shards, id)
			}
			if sim.Eps[specs[i].Dst].Receiver(id) != nil {
				t.Fatalf("shards=%d: completed flow %d still has a registered receiver", shards, id)
			}
			if !c.Completed() || c.FCT() <= 0 || c.Stats().BytesAcked == 0 {
				t.Fatalf("shards=%d: flow %d result handle unreadable: fct=%v stats=%+v",
					shards, id, c.FCT(), c.Stats())
			}
		}
		if got := len(sim.Results()); got != len(specs) {
			t.Errorf("shards=%d: %d results for %d flows", shards, got, len(specs))
		}
	}
}
