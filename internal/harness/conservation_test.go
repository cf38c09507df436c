package harness

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/topo"
	"uno/internal/workload"
)

// flowLedger is a per-flow packet accountant chained behind a shard's
// digest observer (via Sim.ObserveShard; one ledger per shard, summed after
// the run). Sent counts every host injection including
// retransmissions and EC parity; Delivered counts only final-hop
// deliveries (the fabric also reports per-hop handoffs to switches, which
// are not terminal events); Dropped counts discards at any hop.
type flowLedger struct {
	sent      map[netsim.FlowID]int64
	delivered map[netsim.FlowID]int64
	dropped   map[netsim.FlowID]int64
}

func newFlowLedger() *flowLedger {
	return &flowLedger{
		sent:      make(map[netsim.FlowID]int64),
		delivered: make(map[netsim.FlowID]int64),
		dropped:   make(map[netsim.FlowID]int64),
	}
}

// add sums another shard's ledger into fl.
func (fl *flowLedger) add(o *flowLedger) {
	for f, n := range o.sent {
		fl.sent[f] += n
	}
	for f, n := range o.delivered {
		fl.delivered[f] += n
	}
	for f, n := range o.dropped {
		fl.dropped[f] += n
	}
}

// PacketSent implements netsim.Observer.
func (fl *flowLedger) PacketSent(_ *netsim.Host, p *netsim.Packet) { fl.sent[p.Flow]++ }

// PacketDelivered implements netsim.Observer. Only the hop that reaches
// the packet's destination host terminates the packet's life.
func (fl *flowLedger) PacketDelivered(l *netsim.Link, p *netsim.Packet) {
	if l.To().ID() == p.Dst {
		fl.delivered[p.Flow]++
	}
}

// PacketDropped implements netsim.Observer.
func (fl *flowLedger) PacketDropped(_ string, _ netsim.DropReason, p *netsim.Packet) {
	fl.dropped[p.Flow]++
}

// TestFatTreeFlowConservation extends the single-link conservation check in
// internal/netsim to the full dual-DC fat-tree: in a Fig 8-style mixed
// incast (intra + inter flows converging on one host) plus disjoint
// inter-DC pairs, every packet a host injects is eventually either
// delivered to its destination host or dropped somewhere in the fabric —
// per flow, across multi-hop routes, trims, retransmissions, EC parity and
// reverse-path ACKs.
//
// The Annulus/QCN stacks are deliberately excluded: CNM packets are
// injected by switches directly into the victim host's handler and never
// cross a host NIC or a counted link hop, so sent/delivered accounting
// does not apply to them.
func TestFatTreeFlowConservation(t *testing.T) {
	stacks := []Stack{StackUno(), StackGemini(), StackMPRDMABBR()}
	for _, stack := range stacks {
		t.Run(stack.Name, func(t *testing.T) {
			topoCfg := topo.DefaultConfig()
			// Starve the fabric queues (a handful of MTUs) so the incast
			// actually tail-drops and the dropped leg of the ledger is
			// exercised, not just the delivered leg.
			topoCfg.QueueCapIntra = 32 << 10
			topoCfg.QueueCapInter = 32 << 10
			perDC := topoCfg.HostsPerDC()
			hpp := perDC / topoCfg.K

			// Fig 8-style mixed incast on host 0: two intra, two inter.
			var specs []workload.FlowSpec
			for i := 0; i < 2; i++ {
				specs = append(specs, workload.FlowSpec{
					Src: (i+1)*hpp + i, Dst: 0, Size: 256 << 10,
				})
				specs = append(specs, workload.FlowSpec{
					Src: perDC + i*hpp + i, Dst: 0, Size: 256 << 10,
				})
			}
			// Plus disjoint inter-DC pairs exercising the border links.
			specs = append(specs, interPairSpecs(topoCfg, 4, 128<<10)...)

			// Both partitions: the whole fabric on one shard, and per-DC
			// shards, where a flow's sends and deliveries land in different
			// shards' ledgers.
			for _, shards := range []int{0, 2} {
				sim, err := NewSimShards(99, topoCfg, stack, shards)
				if err != nil {
					t.Fatal(err)
				}
				shardLedgers := make([]*flowLedger, sim.Cluster().Shards())
				for i := range shardLedgers {
					shardLedgers[i] = newFlowLedger()
					sim.ObserveShard(i, shardLedgers[i])
				}
				sim.Schedule(specs)
				sim.Run(200 * eventq.Millisecond)
				if sim.Pending() != 0 {
					t.Fatalf("shards=%d: %d flows unfinished at horizon; conservation check needs completed flows", shards, sim.Pending())
				}
				// Drain in-flight packets (trailing ACKs, late retransmissions):
				// all timers are cancelled at completion, so the queue empties.
				sim.Drain()
				ledger := newFlowLedger()
				for _, l := range shardLedgers {
					ledger.add(l)
				}

				if len(ledger.sent) != len(specs) {
					t.Fatalf("shards=%d: ledger saw %d flows, want %d", shards, len(ledger.sent), len(specs))
				}
				var totalDropped int64
				for flow, sent := range ledger.sent {
					delivered, dropped := ledger.delivered[flow], ledger.dropped[flow]
					totalDropped += dropped
					if sent != delivered+dropped {
						t.Errorf("shards=%d, flow %d: sent %d != delivered %d + dropped %d (leak of %d packets)",
							shards, flow, sent, delivered, dropped, sent-delivered-dropped)
					}
					if sent == 0 {
						t.Errorf("shards=%d, flow %d injected no packets; test is vacuous", shards, flow)
					}
				}
				if totalDropped == 0 {
					t.Errorf("shards=%d: no packets dropped; queues too generous for the drop leg to be exercised", shards)
				}
				t.Logf("%s, shards=%d: %d flows, dropped %d packets total", stack.Name, shards, len(ledger.sent), totalDropped)
			}
		})
	}
}
