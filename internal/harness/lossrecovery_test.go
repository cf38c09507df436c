package harness

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/topo"
	"uno/internal/workload"
)

// TestLossRecoveryIncastRetransmitBudget is the benchmark's perm workload in
// small: every host of one DC's first two pods sends four one-path flows and
// receives four (a bidirectional 4:1 incast), so each flow's ACKs share
// their links with other flows' data. Fast retransmits must stay within a
// small multiple of what the fabric really dropped, and none may turn out
// spurious. With a random entropy per ACK the ACKs of one flow overtook each
// other across reverse paths and a tenth of all packets sent were spurious
// fast retransmits (DESIGN §5, "Loss recovery").
func TestLossRecoveryIncastRetransmitBudget(t *testing.T) {
	cfg := topo.DefaultConfig()
	// Shallow queues, so that the incast really drops.
	cfg.QueueCapIntra = 256 << 10
	const hosts = 32
	var specs []workload.FlowSpec
	for _, rot := range []int{1, 5, 9, 13} {
		for i := 0; i < hosts; i++ {
			specs = append(specs, workload.FlowSpec{Src: i, Dst: (i + rot) % hosts, Size: 512 << 10})
		}
	}
	sim := MustNewSim(5, cfg, StackUnoECMP())
	drops := make([]*netsim.CountingObserver, sim.Cluster().Shards())
	for i := range drops {
		drops[i] = netsim.NewCountingObserver()
		sim.ObserveShard(i, drops[i])
	}
	conns := sim.Schedule(specs)
	sim.Run(50 * eventq.Millisecond)
	if sim.Pending() != 0 {
		t.Fatalf("%d flows unfinished", sim.Pending())
	}
	var fast, spurious, timeouts, sent uint64
	for _, c := range conns {
		st := c.Stats()
		fast += st.FastRetrans
		spurious += st.SpuriousRetrans
		timeouts += st.Timeouts
		sent += st.PktsSent
	}
	var tail uint64
	for _, d := range drops {
		tail += d.Dropped[netsim.DropTail]
	}
	t.Logf("%d flows, %d packets sent: %d tail drops, %d fast retransmits, %d spurious, %d timeouts",
		len(conns), sent, tail, fast, spurious, timeouts)
	if tail == 0 {
		t.Fatal("no tail drops: the incast is not one, the budget below shows nothing")
	}
	if fast > 2*tail {
		t.Errorf("FastRetrans = %d, over twice the %d packets the fabric dropped", fast, tail)
	}
	if spurious != 0 {
		t.Errorf("SpuriousRetrans = %d, want 0", spurious)
	}
}
