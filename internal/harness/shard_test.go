package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/workload"
)

// This file holds the acceptance tests of the shard count: the metamorphic
// worker-count equivalence property (a per-DC run's observable results must
// not depend on how many goroutines execute it) on random scenarios and over
// the whole experiment registry, cross-shard packet conservation on the real
// dual-DC fat-tree with full transport stacks, what a one-shard Sim
// guarantees, and the rerun-fan-out clamp.

// perFlowFold is a per-shard observer that folds every packet event into a
// per-flow fingerprint. Unlike the run-wide digest it keys events by flow,
// so the equivalence test can localize a divergence to the flow that
// caused it. One instance attaches per shard (events arrive on the shard's
// goroutine); the test merges the per-shard maps afterwards.
type perFlowFold struct {
	net *netsim.Network
	h   map[netsim.FlowID]uint64
}

func newPerFlowFold(n *netsim.Network) *perFlowFold {
	return &perFlowFold{net: n, h: make(map[netsim.FlowID]uint64)}
}

func (f *perFlowFold) fold(kind uint64, p *netsim.Packet) {
	h, ok := f.h[p.Flow]
	if !ok {
		h = netsim.DigestSeed
	}
	h = netsim.DigestFold(h, uint64(f.net.Now()))
	h = netsim.DigestFold(h, kind<<48|uint64(p.Type)<<40|uint64(uint32(p.Size)))
	h = netsim.DigestFold(h, uint64(p.Seq))
	f.h[p.Flow] = h
}

func (f *perFlowFold) PacketSent(h *netsim.Host, p *netsim.Packet)      { f.fold(1, p) }
func (f *perFlowFold) PacketDelivered(l *netsim.Link, p *netsim.Packet) { f.fold(2, p) }
func (f *perFlowFold) PacketDropped(w string, r netsim.DropReason, p *netsim.Packet) {
	f.fold(3, p)
}

// shardRun is everything observable about one sharded run that must be
// independent of the worker count.
type shardRun struct {
	digest    uint64
	perShard  []uint64
	executed  []uint64
	perFlow   []map[netsim.FlowID]uint64
	results   []FlowResult
	pending   int
	events    uint64 // invariant-observer event count
	violation []netsim.Violation
}

// runSharded executes one dual-DC scenario on per-DC shards with the given
// worker count and snapshots every observable.
func runSharded(t *testing.T, seed uint64, topoCfg topo.Config, stack Stack,
	specs []workload.FlowSpec, horizon eventq.Time, workers int) shardRun {
	t.Helper()
	sim, err := NewSimShards(seed, topoCfg, stack, workers)
	if err != nil {
		t.Fatalf("NewSimShards(workers=%d): %v", workers, err)
	}
	if !sim.Sharded() {
		t.Fatalf("NewSimShards(workers=%d) built a one-shard sim", workers)
	}
	ci := netsim.AttachClusterInvariants(sim.Cluster())
	folds := make([]*perFlowFold, sim.Cluster().Shards())
	for i := range folds {
		folds[i] = newPerFlowFold(sim.Cluster().Shard(i))
		sim.ObserveShard(i, folds[i])
	}
	sim.Schedule(specs)
	sim.Run(horizon)

	out := shardRun{
		digest:    sim.Digest(),
		results:   sim.Results(),
		pending:   sim.Pending(),
		events:    ci.Events(),
		violation: ci.Check(),
	}
	for i := 0; i < sim.Cluster().Shards(); i++ {
		out.perShard = append(out.perShard, sim.shards[i].digest.Sum())
		out.executed = append(out.executed, sim.Cluster().Shard(i).Sched.Executed())
		out.perFlow = append(out.perFlow, folds[i].h)
	}
	return out
}

// randomDualDCScenario draws a small random dual-DC scenario: fat-tree
// arity, queue depths, WAN latency, stack, and a handful of intra- and
// inter-DC flows with random sizes and staggered starts.
func randomDualDCScenario(r *rng.Rand) (topo.Config, Stack, []workload.FlowSpec) {
	cfg := topo.DefaultConfig()
	cfg.K = 2 * (1 + r.Intn(2)) // 2 or 4
	cfg.BorderLinks = 1 + r.Intn(3)
	cfg.InterLinkDelay = eventq.Time(40+r.Intn(200)) * eventq.Microsecond
	if r.Intn(2) == 0 {
		// Shallow queues so some scenarios exercise drops and recovery
		// across the partition boundary.
		cfg.QueueCapIntra = 48 << 10
		cfg.QueueCapInter = 48 << 10
	}
	stacks := []Stack{StackUno(), StackUnoNoEC(), StackGemini()}
	stack := stacks[r.Intn(len(stacks))]

	perDC := cfg.HostsPerDC()
	all := workload.HostRange{Lo: 0, Hi: 2 * perDC}
	n := 3 + r.Intn(6)
	specs := make([]workload.FlowSpec, 0, n)
	for i := 0; i < n; i++ {
		src := all.Pick(r)
		dst := all.PickOther(r, src)
		specs = append(specs, workload.FlowSpec{
			Src:     src,
			Dst:     dst,
			Size:    int64(2+r.Intn(63)) << 10,
			Start:   eventq.Time(r.Intn(300)) * eventq.Microsecond,
			InterDC: (src < perDC) != (dst < perDC),
		})
	}
	return cfg, stack, specs
}

// TestShardEquivalenceProperty is the metamorphic property at the heart of
// per-DC sharding: for random small dual-DC scenarios, running the
// partitioned simulation with 1 worker (serial round-robin) and 2 workers
// (one goroutine per DC) must produce identical run digests, per-shard
// digests, per-flow event fingerprints, per-shard executed-event counts,
// and flow results. The partition structure is fixed by the topology, so
// the worker count may only change wall-clock, never behavior.
func TestShardEquivalenceProperty(t *testing.T) {
	const scenarios = 6
	r := rng.New(0xced1)
	for sc := 0; sc < scenarios; sc++ {
		cfg, stack, specs := randomDualDCScenario(r)
		seed := r.Uint64()
		name := fmt.Sprintf("scenario%d_K%d_%s_%dflows", sc, cfg.K, stack.Name, len(specs))
		t.Run(name, func(t *testing.T) {
			a := runSharded(t, seed, cfg, stack, specs, 80*eventq.Millisecond, 1)
			b := runSharded(t, seed, cfg, stack, specs, 80*eventq.Millisecond, 2)
			if len(a.violation) != 0 || len(b.violation) != 0 {
				t.Fatalf("invariant violations: w1=%v w2=%v", a.violation, b.violation)
			}
			if a.digest != b.digest {
				t.Errorf("run digest diverged: w1=%#x w2=%#x", a.digest, b.digest)
			}
			if !reflect.DeepEqual(a.perShard, b.perShard) {
				t.Errorf("per-shard digests diverged: w1=%#x w2=%#x", a.perShard, b.perShard)
			}
			if !reflect.DeepEqual(a.executed, b.executed) {
				t.Errorf("per-shard executed counts diverged: w1=%v w2=%v", a.executed, b.executed)
			}
			if !reflect.DeepEqual(a.perFlow, b.perFlow) {
				t.Errorf("per-flow fingerprints diverged:\nw1=%v\nw2=%v", a.perFlow, b.perFlow)
			}
			if !reflect.DeepEqual(a.results, b.results) || a.pending != b.pending {
				t.Errorf("flow results diverged: w1=%v/%d w2=%v/%d",
					a.results, a.pending, b.results, b.pending)
			}
			if a.events != b.events {
				t.Errorf("invariant event counts diverged: w1=%d w2=%d", a.events, b.events)
			}
			if a.pending > 0 {
				t.Logf("%d flows missed the horizon (still compared equal)", a.pending)
			}
			if a.events == 0 {
				t.Fatalf("invariant observer saw no events — scenario is vacuous")
			}
		})
	}
}

// TestShardedFatTreeConservation runs a realistic mixed workload on the
// default dual-DC fat-tree with both worker counts and requires the
// cluster-wide conservation ledger to balance: per shard every packet is
// delivered, dropped, exported, or still in flight, and per handoff
// direction every exported record was drained into its destination pool.
func TestShardedFatTreeConservation(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.K = 4
	cfg.QueueCapIntra = 64 << 10 // force overflow drops through the ledger
	cfg.QueueCapInter = 64 << 10
	cfg.InterLinkDelay = 100 * eventq.Microsecond
	perDC := cfg.HostsPerDC()
	var specs []workload.FlowSpec
	for i := 0; i < 8; i++ {
		// Inter-DC incast onto host 0 plus reverse traffic: crossings in
		// both directions, with overflow drops at the shallow border queues.
		specs = append(specs, workload.FlowSpec{
			Src: perDC + i*2, Dst: 0, Size: 256 << 10, InterDC: true,
		})
		specs = append(specs, workload.FlowSpec{
			Src: i, Dst: perDC + i, Size: 64 << 10,
			Start: eventq.Time(i*20) * eventq.Microsecond, InterDC: true,
		})
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			sim, err := NewSimShards(7, cfg, StackUno(), workers)
			if err != nil {
				t.Fatal(err)
			}
			ci := netsim.AttachClusterInvariants(sim.Cluster())
			sim.Schedule(specs)
			sim.Run(400 * eventq.Millisecond)
			if sim.Pending() > 0 {
				t.Fatalf("%d flows missed the horizon", sim.Pending())
			}
			for _, v := range ci.Check() {
				t.Errorf("invariant violation: %v", v)
			}
			if ci.Events() == 0 {
				t.Fatal("invariant observer saw no events")
			}
		})
	}
}

// goldenShardedDualDC pins the per-DC partition's digest for a fixed
// dual-DC scenario on the default-latency fabric. Both worker counts must
// reproduce this committed constant byte-for-byte, which is worker-count
// independence stated as a golden. Like the simtest goldens it also pins
// against accidental behavior drift in the partition protocol itself.
const goldenShardedDualDC = 0xd37c936645e26684

// TestShardedGoldenDigest runs the golden dual-DC scenario on per-DC
// shards with 1 and 2 workers and compares each run against the committed
// digest, with cluster invariants attached.
func TestShardedGoldenDigest(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.K = 4
	perDC := cfg.HostsPerDC()
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 5, Size: 2 << 20},
		{Src: 1, Dst: perDC + 7, Size: 1 << 20, InterDC: true},
		{Src: perDC + 2, Dst: 3, Size: 512 << 10, InterDC: true, Start: 50 * eventq.Microsecond},
		{Src: perDC, Dst: perDC + 9, Size: 256 << 10, Start: 100 * eventq.Microsecond},
		{Src: 8, Dst: perDC + 1, Size: 3 << 20, InterDC: true, Start: eventq.Millisecond},
		{Src: perDC + 12, Dst: 4, Size: 128 << 10, InterDC: true, Start: 2 * eventq.Millisecond},
	}
	for _, workers := range []int{1, 2} {
		sim, err := NewSimShards(42, cfg, StackUno(), workers)
		if err != nil {
			t.Fatal(err)
		}
		ci := netsim.AttachClusterInvariants(sim.Cluster())
		sim.Schedule(specs)
		sim.Run(200 * eventq.Millisecond)
		if sim.Pending() > 0 {
			t.Fatalf("workers=%d: %d flows missed the horizon", workers, sim.Pending())
		}
		for _, v := range ci.Check() {
			t.Errorf("workers=%d: invariant violation: %v", workers, v)
		}
		if got := sim.Digest(); got != goldenShardedDualDC {
			t.Errorf("sharded dual-DC digest moved: got %#016x, want %#016x (workers=%d)\n(if the change is intentional, update goldenShardedDualDC)",
				got, uint64(goldenShardedDualDC), workers)
		}
	}
}

// TestRegistryShardEquivalence extends the worker-count equivalence property
// to every experiment in the registry at a small scale: with the fabric
// partitioned per DC, one worker and two must render the same report, digest
// line included.
func TestRegistryShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry experiment twice")
	}
	for _, e := range Registry() {
		var reports [2]string
		for i := range reports {
			reports[i] = e.Run(Config{Scale: 0.1, Seed: 7, Parallel: 1, Shards: i + 1}).String()
		}
		if reports[0] != reports[1] {
			t.Errorf("%s differs between 1 and 2 shard workers:\n--- 1 ---\n%s\n--- 2 ---\n%s",
				e.ID, reports[0], reports[1])
		}
	}
}

// TestOneShardSim: shards <= 0 builds a cluster of one shard holding the
// whole fabric, and that Sim is the plain single-scheduler simulation: no
// cross link and no lookahead, the digest is the shard's own sum, flows open
// at their start time in start order, and the clock follows the scheduler
// through RunUntil and Drain alike.
func TestOneShardSim(t *testing.T) {
	sim, err := NewSimShards(5, smallTopo(), StackUno(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := sim.Cluster()
	if sim.Sharded() || cl.Shards() != 1 || cl.Lookahead() != 0 || sim.Net != cl.Shard(0) {
		t.Fatalf("shards=0 built %d shards with lookahead %v (Sharded() = %v)",
			cl.Shards(), cl.Lookahead(), sim.Sharded())
	}
	perDC := sim.Topo.Cfg.HostsPerDC()
	conns := sim.Schedule([]workload.FlowSpec{
		{Src: 1, Dst: perDC + 2, Size: 64 << 10, Start: 30 * eventq.Microsecond},
		{Src: perDC + 4, Dst: 3, Size: 64 << 10},
	})
	sim.RunUntil(40 * eventq.Microsecond)
	if sim.Now() != 40*eventq.Microsecond || sim.Net.Now() != sim.Now() {
		t.Fatalf("after RunUntil(40us) Now() = %v, scheduler at %v", sim.Now(), sim.Net.Now())
	}
	if first, second := conns[1].Flow().ID, conns[0].Flow().ID; first != 1 || second != 2 {
		t.Errorf("flow IDs %d, %d in start order, want 1, 2", first, second)
	}
	sim.Drain()
	if sim.Pending() != 0 || cl.Pending() != 0 {
		t.Fatalf("Drain left %d flows and %d events", sim.Pending(), cl.Pending())
	}
	if sim.Now() != sim.Net.Now() || sim.Now() <= 40*eventq.Microsecond {
		t.Errorf("after Drain Now() = %v, scheduler at %v", sim.Now(), sim.Net.Now())
	}
	if sim.Digest() != sim.shards[0].digest.Sum() {
		t.Errorf("Digest() = %#x is not the shard's own sum %#x", sim.Digest(), sim.shards[0].digest.Sum())
	}

	// A single datacenter cannot be partitioned: every shard count builds
	// this same Sim.
	single := smallTopo()
	single.NumDCs = 1
	var digests [2]uint64
	for i, shards := range []int{0, 2} {
		sim, err := NewSimShards(5, single, StackUno(), shards)
		if err != nil {
			t.Fatal(err)
		}
		sim.Schedule([]workload.FlowSpec{{Src: 0, Dst: 9, Size: 64 << 10}})
		sim.Run(10 * eventq.Millisecond)
		if sim.Sharded() || sim.Pending() != 0 {
			t.Fatalf("single DC, shards=%d: Sharded() = %v, %d flows pending", shards, sim.Sharded(), sim.Pending())
		}
		digests[i] = sim.Digest()
	}
	if digests[0] != digests[1] {
		t.Errorf("single-DC digests differ by shard count: %#x vs %#x", digests[0], digests[1])
	}

	// A config without datacenters is an error at any shard count.
	bad := smallTopo()
	bad.NumDCs = 0
	for _, shards := range []int{0, 2} {
		if _, err := NewSimShards(5, bad, StackUno(), shards); err == nil {
			t.Errorf("NumDCs=0, shards=%d: no error", shards)
		}
	}
}

// TestNewSimShardsRejectsBadTopology: a topology config the fabric cannot be
// built from is an error from NewSimShards, never a panic inside netsim:
// a zero-delay border link between shards (no lookahead window), a negative
// link delay, and a line rate whose phantom drain rate truncates to zero.
func TestNewSimShardsRejectsBadTopology(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		mutate func(*topo.Config)
	}{
		{"zero inter delay, 1 worker", 1, func(c *topo.Config) { c.InterLinkDelay = 0 }},
		{"zero inter delay, 2 workers", 2, func(c *topo.Config) { c.InterLinkDelay = 0 }},
		{"negative inter delay", 0, func(c *topo.Config) { c.InterLinkDelay = -1 }},
		{"negative intra delay", 0, func(c *topo.Config) { c.IntraLinkDelay = -eventq.Microsecond }},
		{"phantom drain truncates to zero", 0, func(c *topo.Config) { c.LinkBps = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			cfg := topo.DefaultConfig()
			tc.mutate(&cfg)
			if _, err := NewSimShards(1, cfg, StackUno(), tc.shards); err == nil {
				t.Fatal("no error")
			}
		})
	}

	// One shard binds no cross link, so a zero-delay border link is fine.
	cfg := topo.DefaultConfig()
	cfg.InterLinkDelay = 0
	if _, err := NewSimShards(1, cfg, StackUno(), 0); err != nil {
		t.Fatalf("zero inter delay on one shard: %v", err)
	}
}

// TestClampParallel pins the combined-fan-out budget: `parallel` reruns of
// `shards`-worker sims may not exceed GOMAXPROCS total goroutines.
func TestClampParallel(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	budget := func(shards int) int {
		b := cores / shards
		if b < 1 {
			b = 1
		}
		return b
	}
	cases := []struct {
		parallel, shards, want int
	}{
		{8, 0, 8},                 // one shard, one goroutine: passthrough
		{8, -1, 8},                // explicit "off": passthrough
		{1, 4, 1},                 // serial rerun loop: passthrough
		{0, 2, budget(2)},         // "use GOMAXPROCS" resolves to budget
		{-3, 2, budget(2)},        // any non-positive parallel ditto
		{1 << 20, 2, budget(2)},   // oversubscribed: clamped
		{1 << 20, 4 * cores, 1},   // shards alone exceed cores: floor 1
		{budget(2), 2, budget(2)}, // exactly at budget: unchanged
	}
	for _, c := range cases {
		if got := ClampParallel(c.parallel, c.shards); got != c.want {
			t.Errorf("ClampParallel(%d, %d) = %d, want %d (GOMAXPROCS=%d)",
				c.parallel, c.shards, got, c.want, cores)
		}
	}
	if b := budget(2); b > 1 {
		// With >1 cores a 2-shard rerun grid must get strictly fewer
		// workers than a grid of one-goroutine sims would.
		if got := ClampParallel(cores, 2); got >= cores {
			t.Errorf("ClampParallel(%d, 2) = %d, want < %d", cores, got, cores)
		}
	}
}
