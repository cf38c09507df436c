package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/topo"
)

// TestDerivedValues pins every value the transport and the fabric derive
// rather than take as a setting, at the intra-DC and inter-DC base RTTs
// and port capacities of topo.DefaultConfig(): the RTO floor (4 × BaseRTT)
// and ceiling (32 ×), the NACK timer's first period (BaseRTT) and back-off
// ceiling (8 ×), the EC block period ((8,2): ten packets, any eight
// decode), and the QCN threshold (20 % of the queue), read through the
// 32nd sample above it.
func TestDerivedValues(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.QCN = true
	tp := topo.MustBuild(netsim.New(1), cfg)
	border := tp.DCs[0].Border
	cases := []struct {
		name                  string
		baseRTT               eventq.Time
		port                  *netsim.Port
		minRTO, maxRTO        eventq.Time
		nackFirst, nackMax    eventq.Time
		blockPkts, blockData  int16
		qcnThresh, queueBytes int64
	}{
		{
			name:    "intra-DC",
			baseRTT: tp.IntraRTT(4096),
			port:    tp.DCs[0].Edges[0][0].Port(0),
			minRTO:  55_987_200 * eventq.Picosecond, maxRTO: 447_897_600 * eventq.Picosecond,
			nackFirst: 13_996_800 * eventq.Picosecond, nackMax: 111_974_400 * eventq.Picosecond,
			blockPkts: 10, blockData: 8,
			qcnThresh: 209_715, queueBytes: 1 << 20,
		},
		{
			name:    "inter-DC",
			baseRTT: tp.InterRTT(4096),
			port:    border.Port(tp.InterLinkFor(0, 1)[0].PortIdx),
			minRTO:  7_931_980_800 * eventq.Picosecond, maxRTO: 63_455_846_400 * eventq.Picosecond,
			nackFirst: 1_982_995_200 * eventq.Picosecond, nackMax: 15_863_961_600 * eventq.Picosecond,
			blockPkts: 10, blockData: 8,
			qcnThresh: 209_715, queueBytes: 1 << 20,
		},
	}
	for _, tc := range cases {
		p := Params{BaseRTT: tc.baseRTT, EC: true}.withDefaults()
		if min, max := p.rtoBounds(); min != tc.minRTO || max != tc.maxRTO {
			t.Errorf("%s: RTO bounds [%v, %v], want [%v, %v]", tc.name, min, max, tc.minRTO, tc.maxRTO)
		}
		sched := p.schedule(64 * 4096)
		if blk := sched.block(0); blk.count != tc.blockPkts || blk.dataCount != tc.blockData {
			t.Errorf("%s: EC block of %d packets, %d to decode; want %d and %d",
				tc.name, blk.count, blk.dataCount, tc.blockPkts, tc.blockData)
		}

		// The NACK timer: armed by the block's first arrival, then backed
		// off by each NACK until it reaches its ceiling.
		d := newDumbbell(70, gbps100)
		r := testReceiver(d.epB, &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 8 * 4096}, p)
		r.onBlockArrival(0)
		timer := &r.blocks[0].timer
		if got := timer.At() - d.net.Now(); got != tc.nackFirst {
			t.Errorf("%s: first NACK after %v, want %v", tc.name, got, tc.nackFirst)
		}
		for range maxNackBackoffShift + 1 {
			r.onBlockTimeout(0)
		}
		if got := timer.At() - d.net.Now(); got != tc.nackMax {
			t.Errorf("%s: NACK back-off ceiling %v, want %v", tc.name, got, tc.nackMax)
		}

		// The QCN threshold: fill the port's queue to exactly it (the first
		// packet goes straight into service), then count 32 one-byte data
		// packets above it. Only the 32nd is sampled — one byte lower and
		// the 31st would be, one byte higher and none.
		if got := tc.port.Config().QueueCap; got != tc.queueBytes {
			t.Fatalf("%s: port capacity %d, want %d", tc.name, got, tc.queueBytes)
		}
		src, dst := tp.Hosts[0].ID(), tp.Hosts[len(tp.Hosts)-1].ID()
		enqueue := func(size int64) {
			tc.port.Enqueue(&netsim.Packet{Type: netsim.Data, Src: src, Dst: dst, Size: int(size)})
		}
		enqueue(4096)
		for left := tc.qcnThresh; left > 0; left -= 4096 {
			enqueue(min(left, 4096))
		}
		if got := tc.port.QueuedBytes(); got != tc.qcnThresh {
			t.Fatalf("%s: queue filled to %d B, want %d", tc.name, got, tc.qcnThresh)
		}
		for range 31 {
			enqueue(1)
		}
		if n := tc.port.Stats().CnmsSent; n != 0 {
			t.Errorf("%s: %d CNMs after 31 packets above %d B, want 0", tc.name, n, tc.qcnThresh)
		}
		enqueue(1)
		if n := tc.port.Stats().CnmsSent; n != 1 {
			t.Errorf("%s: %d CNMs after 32 packets above %d B, want 1", tc.name, n, tc.qcnThresh)
		}
	}
}
