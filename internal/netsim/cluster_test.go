package netsim

import (
	"strings"
	"testing"
	"unsafe"

	"uno/internal/eventq"
)

// clusterResult captures everything a sharded run produces that must be
// independent of the worker count.
type clusterResult struct {
	digests  []uint64 // per-shard digest sums, shard order
	combined uint64
	executed []uint64 // per-shard events executed
	acks     uint64   // replies received back on shard 0
	datas    uint64   // data packets received on shard 1
	ids      map[uint64]int
	ci       *ClusterInvariants
	cl       *Cluster
}

// clusterScenario builds a two-shard fabric — host a and switch s0 on
// shard 0, host b and switch s1 on shard 1, duplex cross links between the
// switches — and drives bursty request/reply traffic across the border:
// a sends pooled data packets to b, b acknowledges each with a pooled
// reply. Every packet therefore crosses shards twice (request and reply),
// exercising both handoff directions, re-materialization, and the barrier
// drain under whatever worker count the caller picks.
func clusterScenario(t *testing.T, workers int, dropEvery uint64, attachInv bool) clusterResult {
	t.Helper()
	const (
		bw         = 100e9
		localDelay = eventq.Microsecond
		crossDelay = 20 * eventq.Microsecond
	)
	cfg := PortConfig{QueueCap: 1 << 20, ControlBypass: true}

	cl := NewCluster(7, 2, workers)
	net0, net1 := cl.Shard(0), cl.Shard(1)

	s0 := NewSwitch(net0, "s0", nil)
	a := NewHost(net0, "a", 0)
	s1 := NewSwitch(net1, "s1", nil)
	b := NewHost(net1, "b", 1)

	a.AttachNIC(s0, bw, localDelay)
	b.AttachNIC(s1, bw, localDelay)
	pa, _ := s0.AddPort(a, bw, localDelay, cfg)
	px0, lx0 := s0.AddPort(s1, bw, crossDelay, cfg)
	pb, _ := s1.AddPort(b, bw, localDelay, cfg)
	px1, lx1 := s1.AddPort(s0, bw, crossDelay, cfg)
	cl.BindCross(lx0, net1)
	cl.BindCross(lx1, net0)
	s0.SetRouter(dstPortRouter{a.ID(): pa, b.ID(): px0})
	s1.SetRouter(dstPortRouter{b.ID(): pb, a.ID(): px1})

	res := clusterResult{cl: cl, ids: make(map[uint64]int)}
	d0 := NewDigestObserver(net0)
	d1 := NewDigestObserver(net1)
	net0.Observer = d0
	net1.Observer = d1
	if attachInv {
		res.ci = AttachClusterInvariants(cl)
	}
	cl.dropEvery = dropEvery

	// Per-shard delivery logs: each map is written only by its shard's
	// goroutine during windows and merged after the run.
	ids0 := make(map[uint64]int)
	ids1 := make(map[uint64]int)
	b.SetHandler(func(p *Packet) {
		ids1[p.ID]++
		if p.Type != Data {
			return
		}
		res.datas++
		ack := net1.AllocPacket()
		ack.Type = Ack
		ack.Flow = p.Flow
		ack.Src = b.ID()
		ack.Dst = a.ID()
		ack.Size = AckSize
		ack.AckSeq = p.Seq
		b.Send(ack)
	})
	a.SetHandler(func(p *Packet) {
		ids0[p.ID]++
		if p.Type == Ack {
			res.acks++
		}
	})

	// Three bursts on shard 0's clock, offset so traffic straddles several
	// lookahead windows (and the RunUntil split below).
	for burst := 0; burst < 3; burst++ {
		burst := burst
		net0.Sched.Schedule(eventq.Time(burst)*150*eventq.Microsecond, func() {
			for i := 0; i < 40; i++ {
				p := net0.AllocPacket()
				p.Type = Data
				p.Flow = FlowID(burst + 1)
				p.Src = a.ID()
				p.Dst = b.ID()
				p.Size = 4096
				p.Seq = int64(i)
				a.Send(p)
			}
		})
	}

	// Two RunUntil calls: the first deadline intentionally falls between
	// bursts, exercising repeated calls and deadline-straddling records.
	cl.RunUntil(200 * eventq.Microsecond)
	cl.RunUntil(5 * eventq.Millisecond)

	for id, n := range ids0 {
		res.ids[id] += n
	}
	for id, n := range ids1 {
		res.ids[id] += n
	}
	res.digests = []uint64{d0.Sum(), d1.Sum()}
	res.combined = CombineDigests(res.digests...)
	res.executed = []uint64{net0.Sched.Executed(), net1.Sched.Executed()}
	return res
}

// TestClusterWorkerCountInvariance is the tentpole's core promise: the
// partitioned simulation produces bit-identical per-shard digests and
// event counts whether the shards run serially (workers=1) or on separate
// goroutines (workers=2). Everything observable — digest folds, seq
// assignment, delivery counts — must be a function of the partition and
// the barrier grid alone.
func TestClusterWorkerCountInvariance(t *testing.T) {
	base := clusterScenario(t, 1, 0, false)
	if base.acks == 0 || base.datas == 0 {
		t.Fatalf("scenario moved no cross-shard traffic: acks=%d datas=%d", base.acks, base.datas)
	}
	for _, workers := range []int{1, 2} {
		got := clusterScenario(t, workers, 0, false)
		if got.combined != base.combined {
			t.Errorf("workers=%d: combined digest %#x, want %#x", workers, got.combined, base.combined)
		}
		for i := range base.digests {
			if got.digests[i] != base.digests[i] {
				t.Errorf("workers=%d: shard %d digest %#x, want %#x", workers, i, got.digests[i], base.digests[i])
			}
		}
		for i := range base.executed {
			if got.executed[i] != base.executed[i] {
				t.Errorf("workers=%d: shard %d executed %d, want %d", workers, i, got.executed[i], base.executed[i])
			}
		}
		if got.acks != base.acks || got.datas != base.datas {
			t.Errorf("workers=%d: acks=%d datas=%d, want %d/%d", workers, got.acks, got.datas, base.acks, base.datas)
		}
	}
}

// TestClusterPacketIDsUnique: the strided per-shard ID sequences must
// never collide, even though both shards allocate with no coordination.
func TestClusterPacketIDsUnique(t *testing.T) {
	res := clusterScenario(t, 2, 0, false)
	for id, n := range res.ids {
		if n != 1 {
			t.Fatalf("packet id %d delivered %d times", id, n)
		}
	}
	if len(res.ids) == 0 {
		t.Fatal("no deliveries recorded")
	}
}

// TestClusterInvariantsClean: the full invariant layer — per-shard
// checkers plus the cross-shard handoff reconciliation — must stay silent
// on a healthy sharded run, under both worker counts.
func TestClusterInvariantsClean(t *testing.T) {
	for _, workers := range []int{1, 2} {
		res := clusterScenario(t, workers, 0, true)
		if vs := res.ci.Check(); len(vs) != 0 {
			t.Errorf("workers=%d: %d violations, first: %v", workers, len(vs), vs[0])
		}
		if res.ci.Events() == 0 {
			t.Fatalf("workers=%d: cluster checker observed no events", workers)
		}
	}
}

// TestClusterInvariantMutationDroppedHandoff is the cross-shard analogue
// of TestInvariantMutationSkippedReset: with the seeded defect enabled
// (the barrier drain silently discards every Nth handoff record), the
// invariant layer must fail loudly. The per-direction pushed/drained
// counters cannot catch it — the defect counts its victim as drained — so
// this pins the per-flow exported-vs-imported reconciliation.
func TestClusterInvariantMutationDroppedHandoff(t *testing.T) {
	res := clusterScenario(t, 1, 5, true)
	vs := res.ci.Check()
	if len(vs) == 0 {
		t.Fatal("dropped handoff records produced zero violations: the cluster invariant layer is not load-bearing")
	}
	found := false
	for _, v := range vs {
		if v.Check == "handoff" && strings.Contains(v.Msg, "exported") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no handoff export/import violation among %d recorded; first: %v", len(vs), vs[0])
	}
}

// TestBindCrossRejectsIntraShard: binding a link whose both ends live on
// the same shard is a construction error.
func TestBindCrossRejectsIntraShard(t *testing.T) {
	cl := NewCluster(1, 2, 1)
	net0 := cl.Shard(0)
	sw := NewSwitch(net0, "sw", nil)
	h := NewHost(net0, "h", 0)
	_, l := sw.AddPort(h, 100e9, eventq.Microsecond, PortConfig{QueueCap: 1 << 20})
	defer func() {
		if recover() == nil {
			t.Fatal("BindCross on an intra-shard link did not panic")
		}
	}()
	cl.BindCross(l, net0)
}

// TestBindCrossRejectsZeroDelay: a zero-delay cross link would need its
// packets visible in the destination within the current window, which the
// lookahead protocol cannot provide.
func TestBindCrossRejectsZeroDelay(t *testing.T) {
	cl := NewCluster(1, 2, 1)
	s0 := NewSwitch(cl.Shard(0), "s0", nil)
	s1 := NewSwitch(cl.Shard(1), "s1", nil)
	_, l := s0.AddPort(s1, 100e9, 0, PortConfig{QueueCap: 1 << 20})
	defer func() {
		if recover() == nil {
			t.Fatal("BindCross with zero delay did not panic")
		}
	}()
	cl.BindCross(l, cl.Shard(1))
}

// TestClusterNodeRegistry: NodeIDs are cluster-unique and any shard
// resolves any node, since coord tables and packet Src/Dst index a single
// ID space.
func TestClusterNodeRegistry(t *testing.T) {
	cl := NewCluster(1, 2, 1)
	a := NewHost(cl.Shard(0), "a", 0)
	b := NewHost(cl.Shard(1), "b", 1)
	if a.ID() == b.ID() {
		t.Fatalf("nodes on different shards share id %d", a.ID())
	}
	if got := cl.Shard(0).Node(b.ID()); got != Node(b) {
		t.Fatalf("shard 0 resolved node %d to %v, want b", b.ID(), got)
	}
	if got := cl.Shard(1).Node(a.ID()); got != Node(a) {
		t.Fatalf("shard 1 resolved node %d to %v, want a", a.ID(), got)
	}
	if cl.Shard(0).NumNodes() != 1 || cl.Shard(1).NumNodes() != 1 {
		t.Fatalf("per-shard node counts %d/%d, want 1/1", cl.Shard(0).NumNodes(), cl.Shard(1).NumNodes())
	}
}

// TestClusterWithoutCrossLinks: a cluster that binds no cross link — one
// shard holding a whole fabric is the case the harness builds — has no
// lookahead, and RunUntil and Run are its shards' Scheduler.RunUntil and
// Run. The cluster clock follows both: after Run it is where the last shard
// stopped, not the last RunUntil deadline.
func TestClusterWithoutCrossLinks(t *testing.T) {
	for _, nshards := range []int{1, 2} {
		cl := NewCluster(3, nshards, 1)
		if cl.Lookahead() != 0 {
			t.Fatalf("shards=%d: lookahead %v with no cross link", nshards, cl.Lookahead())
		}
		var fired []eventq.Time
		for i := 0; i < nshards; i++ {
			n := cl.Shard(i)
			for _, at := range []eventq.Time{2, 5 + eventq.Time(i), 9} {
				n.Sched.Schedule(at*eventq.Microsecond, func() { fired = append(fired, n.Now()) })
			}
		}
		cl.RunUntil(2 * eventq.Microsecond) // inclusive of events at the deadline
		if len(fired) != nshards || cl.Now() != 2*eventq.Microsecond {
			t.Fatalf("shards=%d: RunUntil(2us) fired %v, Now() = %v", nshards, fired, cl.Now())
		}
		cl.Run()
		if len(fired) != 3*nshards || cl.Pending() != 0 {
			t.Fatalf("shards=%d: Run left %d events pending after firing %v", nshards, cl.Pending(), fired)
		}
		if cl.Now() != 9*eventq.Microsecond {
			t.Errorf("shards=%d: Now() = %v after Run, want the last event's 9us", nshards, cl.Now())
		}
		cl.RunUntil(20 * eventq.Microsecond)
		if cl.Now() != 20*eventq.Microsecond || cl.Shard(nshards-1).Now() != 20*eventq.Microsecond {
			t.Errorf("shards=%d: RunUntil(20us) after Run left the clocks at %v / %v",
				nshards, cl.Now(), cl.Shard(nshards-1).Now())
		}
	}
}

// TestPerShardObjectsOwnTheirCacheLines: a sharded run allocates one
// Scheduler and one DigestObserver per shard back to back, and each shard's
// goroutine writes its own on every event. Sized a whole number of 64-byte
// lines they fill their allocator size class and never share a line with
// the neighbouring shard's; the blank pad fields in the two structs exist
// for this (DESIGN §3.7 has the perm_sharded measurement).
func TestPerShardObjectsOwnTheirCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(eventq.Scheduler{}); n%64 != 0 {
		t.Errorf("eventq.Scheduler is %d bytes, not a whole number of cache lines", n)
	}
	if n := unsafe.Sizeof(DigestObserver{}); n%64 != 0 {
		t.Errorf("DigestObserver is %d bytes, not a whole number of cache lines", n)
	}
}
