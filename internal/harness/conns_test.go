package harness

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/workload"
)

// TestConnsSeesStartedFlows: on a one-shard Sim a flow's connection exists
// only from its start time on. Conns() used to return the nil placeholders
// it had copied at Schedule time for ever; it must show the started flows,
// through the same array as the slice Schedule returned. On per-DC shards
// the same holds for every flow inside one DC, while a flow between the
// DCs is open from Schedule on.
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

	// The per-DC leg, at 1 and 2 workers: flows are numbered in spec order
	// at Schedule, a flow between the shards is opened there, and a flow
	// inside either DC stays nil until its start time, when its own shard
	// opens it.
	for _, workers := range []int{1, 2} {
		sim, err := NewSimShards(3, smallTopo(), StackUno(), workers)
		if err != nil {
			t.Fatal(err)
		}
		specs := []workload.FlowSpec{
			{Src: 0, Dst: 1, Size: 64 << 10, Start: 100 * eventq.Microsecond},
			{Src: 2, Dst: perDC + 3, Size: 64 << 10, Start: 50 * eventq.Microsecond},
			{Src: perDC + 4, Dst: perDC + 5, Size: 64 << 10, Start: 20 * eventq.Microsecond},
			{Src: perDC + 6, Dst: 7, Size: 64 << 10, Start: 200 * eventq.Microsecond},
		}
		ret := sim.Schedule(specs)
		for i, c := range ret {
			if cross := i == 1 || i == 3; (c != nil) != cross {
				t.Fatalf("workers=%d: at Schedule flow %d has connection %v; only the cross-shard flows 1 and 3 are open", workers, i, c)
			}
		}
		sim.RunUntil(60 * eventq.Microsecond)
		if c := sim.Conns(); c[0] != nil || c[2] == nil || ret[2] != c[2] {
			t.Fatalf("workers=%d: at 60us flow 2 has started on shard 1 and flow 0 has not: %v", workers, c)
		}
		sim.Run(100 * eventq.Millisecond)
		if sim.Pending() != 0 {
			t.Fatalf("workers=%d: %d flows did not complete", workers, sim.Pending())
		}
		for i, c := range sim.Conns() {
			if c == nil || !c.Completed() || c != ret[i] {
				t.Fatalf("workers=%d: Conns()[%d] = %v: not the completed connection", workers, i, c)
			}
			if id := c.Flow().ID; id != netsim.FlowID(i+1) {
				t.Errorf("workers=%d: flow %d has ID %d, want %d (spec order)", workers, i, id, i+1)
			}
		}
	}
}

// TestOneFlowNumbering: every partition numbers flows at Schedule, in spec
// order and across Schedule calls, so Conns()[i] is the flow with ID i+1,
// also when a later call adds flows that start before still-pending flows
// of an earlier one. The digest is shard 0's sum with every later shard's
// sum folded onto it: on one shard, that shard's own sum.
func TestOneFlowNumbering(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		sim, err := NewSimShards(13, smallTopo(), StackUno(), shards)
		if err != nil {
			t.Fatal(err)
		}
		perDC := sim.Topo.Cfg.HostsPerDC()
		sim.Schedule([]workload.FlowSpec{
			{Src: 0, Dst: 1, Size: 64 << 10},
			{Src: perDC + 2, Dst: 3, Size: 64 << 10, Start: 300 * eventq.Microsecond},
			{Src: 4, Dst: 5, Size: 64 << 10, Start: 200 * eventq.Microsecond},
		})
		sim.RunUntil(50 * eventq.Microsecond)
		sim.Schedule([]workload.FlowSpec{
			{Src: perDC + 6, Dst: perDC + 7, Size: 64 << 10, Start: 100 * eventq.Microsecond},
			{Src: 8, Dst: perDC + 9, Size: 64 << 10, Start: 60 * eventq.Microsecond},
		})
		sim.Run(100 * eventq.Millisecond)
		if sim.Pending() != 0 {
			t.Fatalf("shards=%d: %d flows did not complete", shards, sim.Pending())
		}
		for i, c := range sim.Conns() {
			if id := c.Flow().ID; id != netsim.FlowID(i+1) {
				t.Errorf("shards=%d: Conns()[%d] has ID %d, want %d", shards, i, id, i+1)
			}
		}
		want := sim.shards[0].digest.Sum()
		if shards > 0 {
			want = netsim.DigestFold(want, sim.shards[1].digest.Sum())
		}
		if got := sim.Digest(); got != want {
			t.Errorf("shards=%d: Digest() = %#x, want %#x", shards, got, want)
		}
	}
}

// TestFlowLifecycleOnEveryEngine: on one shard and on per-DC shards with one
// and two workers, a mixed workload with EC flows crossing the border both
// ways ends with both ends of every flow out of their endpoints' demux, no
// event left once the fabric has drained, and every Conn readable as a
// result handle. With per-DC shards a sender completes and is recycled on
// the source host's shard while its receiver completes and is recycled on
// the other; the cross-shard flows, opened by Schedule between windows,
// draw their state from both shards' free lists, while both shards'
// goroutines open their own flows at the same time. That is what
// scripts/ci.sh runs this test under the race detector for.
func TestFlowLifecycleOnEveryEngine(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		sim, err := NewSimShards(11, smallTopo(), StackUno(), shards)
		if err != nil {
			t.Fatal(err)
		}
		perDC := sim.Topo.Cfg.HostsPerDC()
		// Two batches: the second starts after the first completed, so its
		// flows run on the state the first batch's flows gave back.
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
