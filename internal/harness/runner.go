// Package harness assembles full experiments: it builds the dual-DC
// topology, instantiates a protocol stack per flow, injects workloads, and
// collects the statistics each figure/table of the paper reports. One
// Experiment per figure lives in fig*.go; RunAll and the registry back the
// unosim CLI and the repository's benchmarks.
package harness

import (
	"errors"
	"fmt"
	"slices"

	"uno/internal/core"
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/stats"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// FlowResult records one completed (or abandoned) flow.
type FlowResult struct {
	Spec      workload.FlowSpec
	FCT       eventq.Time
	Ideal     eventq.Time // unloaded completion time for slowdown metrics
	Completed bool
}

// Slowdown returns FCT relative to the unloaded ideal.
func (r FlowResult) Slowdown() float64 {
	if r.Ideal <= 0 {
		return 0
	}
	return float64(r.FCT) / float64(r.Ideal)
}

// Sim wires a topology, per-host transport endpoints, and a protocol stack
// into a runnable experiment instance. The fabric always lives on a
// netsim.Cluster: one shard holding all of it, or one shard per datacenter
// coupled through the border links' lookahead windows (NewSimShards).
type Sim struct {
	// Net is shard 0's network: the whole fabric on a one-shard Sim, DC 0
	// otherwise. Drive time through RunUntil/Now and observe through
	// ObserveShard; Net is for what lives on that network (its scheduler
	// for a DC 0 link's flapper, its invariant checker).
	Net  *netsim.Network
	Topo *topo.DualDC
	Eps  []*transport.Endpoint
	MTU  int

	stack  Stack
	nextID netsim.FlowID
	conns  []*transport.Conn

	// unoSys is unoSystem's scratch value. Stack.Policies runs on one
	// goroutine at a time (the coordinator at Schedule time when flows are
	// pre-opened, shard 0's otherwise); the policy objects themselves come
	// from the source shard's pool (shardState.policies).
	unoSys core.System

	cluster *netsim.Cluster
	shards  []shardState
}

// shardState is the run state the simulation touches from event context,
// one per shard and indexed by the source host's shard: written only by
// that shard's goroutine during a window, combined in shard order by the
// accessors between windows.
type shardState struct {
	digest  *netsim.DigestObserver
	results []FlowResult
	pending int
	// policies builds the Uno policies of the flows this shard sources and
	// takes them back at completion (flowRun.done): the coordinator draws
	// on it between windows, the shard's goroutine inside them.
	policies core.Pool
	// Pad to two 64-byte cache lines: neighbouring shards' goroutines append
	// to results, count pending down and recycle policies concurrently
	// (DESIGN §3.7).
	_ [32]byte
}

// NewSimShards builds the simulation; the stack decides whether phantom
// queues are enabled on the fabric, and shards chooses the partition.
// shards <= 0 puts the whole fabric on one shard: one scheduler, packet pool
// and RNG stream, no cross link, so no lookahead window, barrier or goroutine.
// shards >= 1 gives every datacenter its own shard, coupled only through
// the border links' lookahead windows, and runs them with
// min(shards, NumDCs) worker goroutines. Past 0, the value selects only the
// goroutine count: the partition, the barrier grid, and therefore every
// digest are identical for shards=1 and shards=2, which is the equivalence
// the shard property tests pin. Per-DC digests differ from whole-fabric
// ones (per-shard RNG streams and event seqs), so a golden digest is only
// comparable within one partition.
func NewSimShards(seed uint64, topoCfg topo.Config, stack Stack, shards int) (*Sim, error) {
	topoCfg.PhantomEnabled = stack.Phantom
	if stack.QCN {
		topoCfg.QCN = true
	}
	nshards := 1
	if shards >= 1 && topoCfg.NumDCs > 1 {
		nshards = topoCfg.NumDCs
	}
	cl := netsim.NewCluster(seed, nshards, shards)
	tp, err := topo.BuildCluster(cl, topoCfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		Net: cl.Shard(0), Topo: tp, MTU: 4096, stack: stack,
		Eps:     make([]*transport.Endpoint, len(tp.Hosts)),
		cluster: cl,
		shards:  make([]shardState, nshards),
	}
	// Every harness run carries the determinism fingerprint: each shard's
	// observer folds its fabric events into an FNV-1a hash, so equal seeds
	// must give equal digests. Chain extra observers behind it via
	// ObserveShard.
	for i := range s.shards {
		n := cl.Shard(i)
		d := netsim.NewDigestObserver(n)
		n.Observer = d
		s.shards[i].digest = d
	}
	for i, h := range tp.Hosts {
		s.Eps[i] = transport.NewEndpoint(h)
	}
	return s, nil
}

// Sharded reports whether the fabric is partitioned into more than one
// shard.
func (s *Sim) Sharded() bool { return len(s.shards) > 1 }

// Cluster returns the shard cluster the fabric lives on.
func (s *Sim) Cluster() *netsim.Cluster { return s.cluster }

// Digest returns the run's determinism fingerprint: an FNV-1a fold of every
// packet sent, delivered, and dropped so far. Two runs of the same scenario
// with the same seed must return the same digest. The per-shard digests are
// combined in shard order, so the result is independent of the worker
// count. A one-shard Sim returns its shard's sum unwrapped: a whole-fabric
// digest (every golden, every EXPERIMENTS.md row) is the digest of that
// fabric on a standalone network, not a fold of one.
func (s *Sim) Digest() uint64 {
	if !s.Sharded() {
		return s.shards[0].digest.Sum()
	}
	h := netsim.DigestSeed
	for i := range s.shards {
		h = netsim.DigestFold(h, s.shards[i].digest.Sum())
	}
	return h
}

// EventsExecuted returns the total scheduler events executed so far, summed
// across shards — the benchmark denominator.
func (s *Sim) EventsExecuted() uint64 { return s.cluster.Executed() }

// ObserveShard chains an observer behind shard i's digest observer, so
// tracing or counting never disables determinism checking. The observer
// sees only shard i's events and is invoked from shard i's goroutine:
// attach a separate instance per shard of Cluster().
func (s *Sim) ObserveShard(i int, o netsim.Observer) { s.shards[i].digest.Next = o }

// MustNewSim builds a one-shard Sim (NewSimShards with shards 0) for a
// known-good configuration.
func MustNewSim(seed uint64, topoCfg topo.Config, stack Stack) *Sim {
	return Config{}.newSim(seed, topoCfg, stack)
}

// newSim builds one of an experiment's Sims on the partition c.Shards
// selects. Experiments build known-good configurations, so an error is a bug.
func (c Config) newSim(seed uint64, topoCfg topo.Config, stack Stack) *Sim {
	s, err := NewSimShards(seed, topoCfg, stack, c.Shards)
	if err != nil {
		panic(err)
	}
	return s
}

// BaseRTT returns the unloaded RTT between two host indices for a
// full-size data packet (MTU plus transport header) and its ACK.
func (s *Sim) BaseRTT(src, dst int) eventq.Time {
	return s.Topo.BaseRTT(s.Topo.Hosts[src].ID(), s.Topo.Hosts[dst].ID(),
		s.MTU+transport.HeaderSize, netsim.AckSize)
}

// IdealFCT returns the unloaded completion time of a flow: the base RTT
// for the first packet and final ACK, plus serialization of the remaining
// bytes at line rate.
func (s *Sim) IdealFCT(spec workload.FlowSpec) eventq.Time {
	base := s.BaseRTT(spec.Src, spec.Dst)
	nPkts := (spec.Size + int64(s.MTU) - 1) / int64(s.MTU)
	wire := spec.Size + nPkts*transport.HeaderSize
	rest := wire - int64(s.MTU+transport.HeaderSize)
	if rest < 0 {
		rest = 0
	}
	return base + eventq.Time(float64(rest)*8/float64(s.Topo.Cfg.LinkBps)*float64(eventq.Second))
}

// flowRun is the harness's record of one flow from Schedule (or StartFlow)
// to completion. A Schedule call allocates its flows' records as one slice
// and hands each to the scheduler as the argument of a pre-bound callback,
// so starting a flow costs no closure and no retained event.
type flowRun struct {
	s     *Sim
	spec  workload.FlowSpec // private copy: the caller keeps its slice
	flow  transport.Flow
	ideal eventq.Time
	hook  func() // a collective's extra completion callback, else nil
	// Where a scheduled flow's connection is published: slot is its element
	// of the slice Schedule returned, idx its index in s.conns.
	slot  **transport.Conn
	idx   int32
	shard int32 // source host's shard: the flow's shardState
}

// Schedule arranges for the given flows to start at their Start times on
// their source hosts' shards. It returns the connections in spec order; the
// returned slice is the tail of Conns().
func (s *Sim) Schedule(specs []workload.FlowSpec) []*transport.Conn {
	base, n := len(s.conns), len(specs)
	s.conns = slices.Grow(s.conns, n)[:base+n]
	conns := s.conns[base : base+n : base+n]
	clear(conns)
	runs := make([]flowRun, n)
	// Partition-dependent decision 1 of 2. With more than one shard every
	// connection is opened here, on the coordinating goroutine (passively —
	// no events, no entropy): a cross-shard flow registers its receiver on
	// another goroutine's endpoint, which is only safe between windows. One
	// shard has no such constraint and opens each flow at its start time,
	// which keeps flow IDs in start order (and with them every
	// whole-fabric digest) and costs Schedule nothing per flow.
	preopen := s.Sharded()
	for i := range runs {
		fr := &runs[i]
		fr.s, fr.spec = s, specs[i]
		fr.slot, fr.idx = &conns[i], int32(base+i)
		n := s.Topo.Hosts[fr.spec.Src].Network()
		fr.shard = int32(n.Shard())
		s.shards[fr.shard].pending++
		if preopen {
			conns[i] = s.openFlow(fr)
		}
		n.Sched.ScheduleArg(fr.spec.Start, startFlowRun, fr)
	}
	for i := range s.shards {
		// One result per pending flow is still to come.
		st := &s.shards[i]
		st.results = slices.Grow(st.results, st.pending)
	}
	return conns
}

// startFlowRun is the pre-bound start callback: it launches the flow at its
// start time, first opening it if Schedule did not, and then publishes the
// connection in both the slice Schedule returned and Conns() — one element,
// unless a later Schedule or StartFlow grew s.conns into a new array.
func startFlowRun(a any) {
	fr := a.(*flowRun)
	conn := *fr.slot
	if conn == nil {
		conn = fr.s.openFlow(fr)
		*fr.slot = conn
		fr.s.conns[fr.idx] = conn
	}
	conn.Launch()
}

// StartFlow implements collective.Starter: it launches a transfer right
// now and invokes onDone at completion (in addition to the normal result
// collection). Partition-dependent decision 2 of 2: a collective's
// completion callbacks run inside event execution, where a Sim with more
// than one shard must not create cross-shard flows (the destination
// endpoint belongs to another goroutine), so such a Sim refuses with an
// error.
func (s *Sim) StartFlow(src, dst int, size int64, onDone func()) error {
	if s.Sharded() {
		return errors.New("harness: StartFlow (collective starter) is unsupported on a Sim with more than one shard; run collectives on a one-shard Sim")
	}
	// Called from event context, where the one shard's scheduler — not the
	// cluster clock, which moves between windows — has the time.
	fr := &flowRun{
		s:    s,
		spec: workload.FlowSpec{Src: src, Dst: dst, Size: size, Start: s.Net.Now()},
		hook: onDone,
	}
	s.shards[0].pending++
	conn := s.openFlow(fr)
	s.conns = append(s.conns, conn)
	conn.Launch()
	return nil
}

// openFlow resolves what fr's flow needs to be wired — descriptor,
// transport parameters, policies, ideal FCT — and opens it passively; the
// caller launches it at fr.spec.Start.
func (s *Sim) openFlow(fr *flowRun) *transport.Conn {
	spec := &fr.spec
	s.nextID++
	srcHost, dstHost := s.Topo.Hosts[spec.Src], s.Topo.Hosts[spec.Dst]
	interDC := !s.Topo.SameDC(srcHost.ID(), dstHost.ID())
	// The topology is the single source of truth for the flow's class;
	// generator labels are advisory.
	spec.InterDC = interDC
	fr.flow = transport.Flow{
		ID:      s.nextID,
		Src:     srcHost,
		Dst:     dstHost,
		Size:    spec.Size,
		Start:   spec.Start,
		InterDC: interDC,
	}
	params, cc, lb := s.stack.Policies(s, *spec, interDC)
	params.MTU = s.MTU
	if params.BaseRTT <= 0 {
		params.BaseRTT = s.BaseRTT(spec.Src, spec.Dst)
	}
	fr.ideal = s.IdealFCT(*spec)
	return transport.MustOpen(s.Eps[spec.Src], s.Eps[spec.Dst], &fr.flow, params, cc, lb, fr.done)
}

// done is the flow's completion callback. It fires inside the source
// shard's event execution, so it touches only that shard's state: it
// records the result and gives the flow's policies back to the shard's
// pool, which recycles the Uno ones.
func (fr *flowRun) done(c *transport.Conn) {
	st := &fr.s.shards[fr.shard]
	st.pending--
	st.results = append(st.results, FlowResult{Spec: fr.spec, FCT: c.FCT(), Ideal: fr.ideal, Completed: true})
	st.policies.Recycle(c.Policies())
	if fr.hook != nil {
		fr.hook()
	}
}

// Now returns the current simulated time: the cluster clock, i.e. the last
// barrier every shard reached. It is for the code that drives the
// simulation; event callbacks read their own network's clock.
func (s *Sim) Now() eventq.Time { return s.cluster.Now() }

// RunUntil advances the simulation to the deadline, through barrier-stepped
// lookahead windows when there are cross-shard links. Experiments drive
// their custom loops through this, never through s.Net.Sched, which steps
// shard 0 alone.
func (s *Sim) RunUntil(deadline eventq.Time) { s.cluster.RunUntil(deadline) }

// Drain runs the simulation until no events remain (completed flows
// cancel their timers, so a finished workload quiesces).
func (s *Sim) Drain() { s.cluster.Run() }

// Run executes until all scheduled flows complete or the horizon passes.
func (s *Sim) Run(horizon eventq.Time) {
	step := horizon / 64
	if step <= 0 {
		step = horizon
	}
	for at := step; at <= horizon; at += step {
		s.RunUntil(at)
		if s.Pending() == 0 {
			return
		}
	}
}

// Pending returns the number of scheduled-but-unfinished flows.
func (s *Sim) Pending() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].pending
	}
	return total
}

// Conns returns every connection created so far, in scheduling order. An
// entry Schedule did not open up front is nil until its flow starts and is
// filled in when it does; the slice is live up to its length at the time of
// the call.
func (s *Sim) Conns() []*transport.Conn { return s.conns }

// Results returns the completed flows: each shard's list, in completion
// order, concatenated in shard order. While only shard 0 has results — always,
// on a one-shard Sim — its own list is handed out uncopied (rpc_storm
// collects 84 k of them).
func (s *Sim) Results() []FlowResult {
	total := 0
	for i := range s.shards {
		total += len(s.shards[i].results)
	}
	out := s.shards[0].results
	if total > len(out) {
		out = make([]FlowResult, 0, total)
		for i := range s.shards {
			out = append(out, s.shards[i].results...)
		}
	}
	return out
}

// FCTStats summarizes completed flows, split intra/inter. slowdown selects
// FCT-slowdown (vs ideal) instead of absolute FCT in microseconds.
func (s *Sim) FCTStats(slowdown bool) (intra, inter stats.Summary) {
	results := s.Results()
	var si, se stats.Sample
	si.Reserve(len(results))
	se.Reserve(len(results))
	for _, r := range results {
		v := r.FCT.Seconds() * 1e6
		if slowdown {
			v = r.Slowdown()
		}
		if r.Spec.InterDC {
			se.Add(v)
		} else {
			si.Add(v)
		}
	}
	return si.Summarize(), se.Summarize()
}

// AllFCTStats summarizes all completed flows together.
func (s *Sim) AllFCTStats(slowdown bool) stats.Summary {
	results := s.Results()
	var sm stats.Sample
	sm.Reserve(len(results))
	for _, r := range results {
		if slowdown {
			sm.Add(r.Slowdown())
		} else {
			sm.Add(r.FCT.Seconds() * 1e6)
		}
	}
	return sm.Summarize()
}

// RateSampler samples per-connection goodput into time series and records
// when each flow completed, so fairness metrics cover only bins where a
// flow was still active (a finished flow's zero rate is not unfairness).
type RateSampler struct {
	Series []*stats.TimeSeries
	last   []int64
	doneAt []int  // bin index of completion, -1 while active
	inter  []bool // optional class labels (SetClasses)
}

// SetClasses labels each sampled flow as inter-DC or not. When set, the
// fairness metrics only count bins in which *both* classes still have an
// active flow: without this, a scheme that starves one class until it
// finishes early would be scored on the surviving homogeneous flows and
// look spuriously fair.
func (rs *RateSampler) SetClasses(inter []bool) { rs.inter = inter }

// bothClassesActive reports whether bin b has at least one active flow of
// each class (always true when classes are not set or only one class
// exists).
func (rs *RateSampler) bothClassesActive(b int) bool {
	if rs.inter == nil {
		return true
	}
	var intraAny, interAny, intraActive, interActive bool
	for i := range rs.Series {
		// doneAt is the bin the flow completed *in*: it was still
		// transmitting during that bin, so only strictly later bins count
		// it as finished.
		active := rs.doneAt[i] < 0 || rs.doneAt[i] >= b
		if rs.inter[i] {
			interAny = true
			interActive = interActive || active
		} else {
			intraAny = true
			intraActive = intraActive || active
		}
	}
	if intraAny && !intraActive {
		return false
	}
	if interAny && !interActive {
		return false
	}
	return true
}

// SampleRates polls the given connections every interval over [0, stop].
// Each shard runs its own sampling timer over the connections whose source
// host it owns: the timers fire at the same simulated tick times, and each
// (conns, last, doneAt, Series) slot is touched by exactly one shard's
// goroutine, so the sampler needs no locking and its output is
// worker-count-independent. An entry may be nil until its flow starts; that
// only happens where Schedule opens flows at their start time, on a
// one-shard Sim, so shard 0's timer polls it.
func (s *Sim) SampleRates(conns []*transport.Conn, interval, stop eventq.Time) *RateSampler {
	rs := &RateSampler{
		last:   make([]int64, len(conns)),
		doneAt: make([]int, len(conns)),
	}
	for i := range rs.doneAt {
		rs.doneAt[i] = -1
	}
	bins := int(stop/interval) + 1
	rs.Series = make([]*stats.TimeSeries, 0, len(conns))
	for range conns {
		rs.Series = append(rs.Series, stats.NewTimeSeries(0, interval, bins))
	}
	byShard := make([][]int, len(s.shards))
	for i, c := range conns {
		sh := 0
		if c != nil {
			sh = c.Flow().Src.Network().Shard()
		}
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		n := s.cluster.Shard(sh)
		var timer *eventq.Timer
		timer = n.Sched.NewTimer(func() {
			now := n.Now()
			bin := int((now - 1) / interval)
			for _, i := range idxs {
				c := conns[i]
				if c == nil {
					continue
				}
				acked := c.Stats().BytesAcked
				rs.Series[i].AddTo(now-1, float64(acked-rs.last[i]))
				rs.last[i] = acked
				if c.Completed() && rs.doneAt[i] < 0 {
					rs.doneAt[i] = bin
				}
			}
			if now < stop {
				timer.ResetAfter(interval)
			}
		})
		timer.Reset(interval)
	}
	return rs
}

// RatesAt returns each connection's goodput (bytes/s) in bin b.
func (rs *RateSampler) RatesAt(b int) []float64 {
	out := make([]float64, len(rs.Series))
	for i, ts := range rs.Series {
		out[i] = ts.Sum(b) / ts.BinWidth().Seconds()
	}
	return out
}

// activeRatesAt returns the goodputs of flows that were still transmitting
// during bin b. A flow with doneAt == b completed *within* bin b and was
// active for part of it, so only bins strictly after doneAt are excluded —
// dropping the completion bin biased the Jain computation near flow
// completions.
func (rs *RateSampler) activeRatesAt(b int) []float64 {
	var out []float64
	for i, ts := range rs.Series {
		if rs.doneAt[i] >= 0 && rs.doneAt[i] < b {
			continue
		}
		out = append(out, ts.Sum(b)/ts.BinWidth().Seconds())
	}
	return out
}

// TimeToFairness returns the first bin time at which Jain's index over the
// still-active flows stays above thresh for sustain consecutive bins, or
// -1 if that never happens while at least two flows compete.
func (rs *RateSampler) TimeToFairness(thresh float64, sustain int) eventq.Time {
	if len(rs.Series) == 0 {
		return -1
	}
	bins := rs.Series[0].Bins()
	streak := 0
	for b := 0; b < bins; b++ {
		active := rs.activeRatesAt(b)
		if len(active) < 2 || !rs.bothClassesActive(b) {
			break
		}
		if stats.JainIndex(active) >= thresh {
			streak++
			if streak >= sustain {
				return rs.Series[0].BinTime(b - sustain + 1)
			}
		} else {
			streak = 0
		}
	}
	return -1
}

// MeanJain returns the average Jain index over bins [from, to), counting
// only bins where at least two flows were active and (when classes are
// set) both classes were still competing.
func (rs *RateSampler) MeanJain(from, to int) float64 {
	if len(rs.Series) == 0 {
		return 0
	}
	total, n := 0.0, 0
	for b := from; b < to && b < rs.Series[0].Bins(); b++ {
		if !rs.bothClassesActive(b) {
			continue
		}
		if active := rs.activeRatesAt(b); len(active) >= 2 {
			total += stats.JainIndex(active)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ClassRateRatio returns the per-flow inter-DC : intra-DC mean-rate ratio
// over the middle half of the contested period (1.0 = the classes share
// per-flow fairly; the paper's Fig 3 B shows Gemini far from 1 for the
// flows' whole lifetime).
func (rs *RateSampler) ClassRateRatio() float64 {
	if rs.inter == nil || len(rs.Series) == 0 {
		return 0
	}
	last := rs.lastContestedBin()
	if last < 0 {
		return 0
	}
	lo, hi := last/2, last*3/4+1
	var intraSum, interSum float64
	var intraN, interN int
	for i, ts := range rs.Series {
		sum := 0.0
		for b := lo; b < hi; b++ {
			sum += ts.Sum(b)
		}
		if rs.inter[i] {
			interSum += sum
			interN++
		} else {
			intraSum += sum
			intraN++
		}
	}
	if intraN == 0 || interN == 0 || intraSum == 0 {
		return 0
	}
	return (interSum / float64(interN)) / (intraSum / float64(intraN))
}

// lastContestedBin returns the final bin of the contested period, or -1.
func (rs *RateSampler) lastContestedBin() int {
	last := -1
	for b := 0; b < rs.Series[0].Bins(); b++ {
		if len(rs.activeRatesAt(b)) >= 2 && rs.bothClassesActive(b) {
			last = b
		} else if last >= 0 {
			break
		}
	}
	return last
}

// ContestedJain returns the mean Jain index over the middle half of the
// contested period — the longest prefix of bins during which at least two
// flows (and, when classes are set, both traffic classes) were active.
// The start transient and the completion edge (where a fair scheme's
// synchronized finishes make per-bin rates noisy) are both excluded; a
// fixed wall-clock window would instead score schemes on whatever
// homogeneous flows survive longest.
func (rs *RateSampler) ContestedJain() float64 {
	if len(rs.Series) == 0 {
		return 0
	}
	last := rs.lastContestedBin()
	if last < 0 {
		return 0
	}
	lo, hi := last/2, last*3/4+1
	return rs.MeanJain(lo, hi)
}

// fmtDur renders a duration for report tables.
func fmtDur(t eventq.Time) string {
	switch {
	case t < 0:
		return "-"
	case t >= eventq.Millisecond:
		return fmt.Sprintf("%.2fms", t.Seconds()*1e3)
	default:
		return fmt.Sprintf("%.1fµs", t.Seconds()*1e6)
	}
}
