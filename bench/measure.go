package main

import (
	"fmt"
	"iter"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"uno/internal/eventq"
	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/transport"
	"uno/internal/workload"
)

// invariantScale is the size of the invariant repetition relative to the
// frozen sizes. netsim's checker re-verifies every port of the fabric on
// every 16th packet event (about 12 µs per event on the full fat tree), so
// at full size it would take a minute or more per run; 1/32 keeps it
// to a few seconds while still driving every flow through the checker.
const invariantScale = 1.0 / 32

// graceHorizons is how many horizons a repetition may last in all. A flow
// that loses its tail to a full queue waits out an RTO back-off chain (8 +
// 16 + 32 + 64 ms across the border, then 64 ms per further loss) before the
// sender resends, and on about one seed in eight such a flow outlasts the
// horizon. It is one flow in thousands, behind p99 and after the goodput
// instant, but it must finish for the run to count, so the run goes on for
// it, a horizon at a time.
const graceHorizons = 16

// repOpts selects what one repetition carries besides the workload itself.
type repOpts struct {
	scale      float64
	workers    int
	invariants bool    // attach netsim's invariant checkers
	tr         *tracer // traced repetition: spans, probes, counting observers
	probes     *probes
}

// repResult is everything one repetition measured or produced.
type repResult struct {
	wall, cpu time.Duration
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64

	events     uint64
	digest     uint64
	flows      int   // scheduled
	completed  int   // done by the horizon
	payload    int64 // payload bytes of completed flows
	flowset    uint64
	wantSet    uint64 // flowset of the scheduled specs
	p50, p99   float64
	goodput    float64 // Gb/s at the observation instant
	violations []netsim.Violation

	traced *tracedCounts
}

// tracedCounts are the per-layer counts a traced repetition collects.
type tracedCounts struct {
	pendingPeak   int
	windows       int // cluster barrier windows
	shardExecuted []uint64
	sent, hops    uint64
	drops         map[netsim.DropReason]uint64
	ports         netsim.PortStats
	conns         transport.ConnStats
	borderDrops   uint64
	borderDeliv   uint64
	meters        shardMeters
	policies      meter
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// flowKey hashes one flow's identity; flow sets are compared by the wrapping
// sum of their keys, which does not depend on completion order.
func flowKey(s workload.FlowSpec) uint64 {
	h := netsim.DigestFold(netsim.DigestSeed, uint64(s.Src))
	h = netsim.DigestFold(h, uint64(s.Dst))
	h = netsim.DigestFold(h, uint64(s.Size))
	return netsim.DigestFold(h, uint64(s.Start))
}

func pendingEvents(sim *harness.Sim) int {
	if sim.Sharded() {
		return sim.Cluster().Pending()
	}
	return sim.Net.Sched.Pending()
}

// repetition builds the workload, runs it to completion and collects the
// results. wall and cpu cover Run plus result collection, which is what a
// user waits for once the experiment is set up; allocB also covers set-up.
func (w def) repetition(seed uint64, o repOpts) (repResult, error) {
	var res repResult
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	root := o.tr.begin("repetition", -1)
	var wrap func(harness.Stack) harness.Stack
	if o.probes != nil {
		wrap = o.probes.wrap
	}
	sim, specs, conns, err := w.prepare(seed, o.scale, o.workers, wrap, o.tr, root)
	if err != nil {
		return res, err
	}
	var check func() []netsim.Violation
	if o.invariants {
		if sim.Sharded() {
			check = netsim.AttachClusterInvariants(sim.Cluster()).Check
		} else {
			check = netsim.AttachInvariants(sim.Net).Check
		}
	}
	var counters []*netsim.CountingObserver
	if o.tr != nil {
		shards := 1
		if sim.Sharded() {
			shards = sim.Cluster().Shards()
		}
		for i := 0; i < shards; i++ {
			c := netsim.NewCountingObserver()
			counters = append(counters, c)
			sim.ObserveShard(i, c)
		}
		res.traced = &tracedCounts{drops: map[netsim.DropReason]uint64{}}
	}

	cpu0, t0 := cpuTime(), time.Now()
	if o.tr != nil {
		w.runWindows(sim, o, root, res.traced)
	} else {
		for at := range w.deadlines() {
			sim.RunUntil(at)
			if sim.Pending() == 0 {
				break
			}
		}
	}
	id := o.tr.begin(spanResults, root)
	results := sim.Results()
	o.tr.end(id)
	id = o.tr.begin(spanFCTStats, root)
	sum := sim.AllFCTStats(true)
	o.tr.end(id)
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	o.tr.end(root)

	runtime.ReadMemStats(&m1)
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	res.events, res.digest = sim.EventsExecuted(), sim.Digest()
	res.flows, res.completed = len(specs), len(results)
	res.p50, res.p99 = sum.Median, sum.P99
	var observed int64
	for _, r := range results {
		res.payload += r.Spec.Size
		res.flowset += flowKey(r.Spec)
		if r.Spec.Start+r.FCT <= w.observe {
			observed += r.Spec.Size
		}
	}
	for _, s := range specs {
		res.wantSet += flowKey(s)
	}
	res.goodput = float64(observed) * 8 / w.observe.Seconds() / 1e9
	if check != nil {
		res.violations = check()
	}
	if tc := res.traced; tc != nil {
		for _, c := range counters {
			tc.sent += c.Sent
			tc.hops += c.Delivered
			for r, n := range c.Dropped {
				tc.drops[r] += n
			}
		}
		collectFabric(sim, conns, tc)
		tc.meters, tc.policies = o.probes.total(), o.probes.policies
	}
	return res, nil
}

// deadlines are the RunUntil deadlines of a repetition, which ends at the
// first one that finds every flow complete: Sim.Run's 64 windows up to the
// horizon, then one window per horizon for stragglers.
func (w def) deadlines() iter.Seq[eventq.Time] {
	return func(yield func(eventq.Time) bool) {
		step := w.horizon / 64
		for at := step; at <= w.horizon; at += step {
			if !yield(at) {
				return
			}
		}
		for at := 2 * w.horizon; at <= graceHorizons*w.horizon; at += w.horizon {
			if !yield(at) {
				return
			}
		}
	}
}

// runWindows runs a traced repetition with a span around each RunUntil
// window. It issues the same deadlines as an untraced repetition.
func (w def) runWindows(sim *harness.Sim, o repOpts, parent int, tc *tracedCounts) {
	prev := o.probes.total()
	for at := range w.deadlines() {
		if sim.Sharded() {
			tc.windows += barrierWindows(sim.Now(), at, sim.Cluster().Lookahead())
		}
		ev0 := sim.EventsExecuted()
		id := o.tr.begin("harness.Sim.RunUntil", parent)
		sim.RunUntil(at)
		o.tr.end(id)
		pending := pendingEvents(sim)
		if pending > tc.pendingPeak {
			tc.pendingPeak = pending
		}
		o.tr.count(id, "events", float64(sim.EventsExecuted()-ev0))
		o.tr.count(id, "pending", float64(pending))
		cur := o.probes.total()
		for _, a := range []struct {
			name      string
			cur, prev meter
		}{
			{"policy.cc.OnAck", cur.ccAck, prev.ccAck},
			{"policy.lb.Assign", cur.lbAssign, prev.lbAssign},
			{"policy.lb.OnAck", cur.lbAck, prev.lbAck},
		} {
			d := meter{calls: a.cur.calls - a.prev.calls, samples: a.cur.samples - a.prev.samples, ns: a.cur.ns - a.prev.ns}
			o.tr.aggregate(a.name, id, d.calls, d.estNs(o.probes.timerNs))
		}
		prev = cur
		if sim.Pending() == 0 {
			return
		}
	}
}

// barrierWindows counts the lookahead windows Cluster.RunUntil steps from
// now to deadline: one per multiple of the lookahead strictly inside the
// interval, plus the final inclusive one. The cluster keeps no counter, so
// this mirrors its loop from outside.
func barrierWindows(now, deadline, lookahead eventq.Time) int {
	n := 1
	if lookahead > 0 {
		for b := (now/lookahead + 1) * lookahead; b < deadline; b += lookahead {
			n++
		}
	}
	return n
}

// collectFabric sums the end-of-run counters the fabric and transport keep.
func collectFabric(sim *harness.Sim, conns []*transport.Conn, tc *tracedCounts) {
	addPort := func(p *netsim.Port) {
		s := p.Stats()
		tc.ports.EnqueuedPackets += s.EnqueuedPackets
		tc.ports.TailDrops += s.TailDrops
		tc.ports.ECNMarks += s.ECNMarks
		tc.ports.Trims += s.Trims
	}
	addSwitch := func(s *netsim.Switch) {
		for i := 0; i < s.NumPorts(); i++ {
			addPort(s.Port(i))
		}
	}
	for _, dc := range sim.Topo.DCs {
		for _, tier := range [][][]*netsim.Switch{dc.Edges, dc.Aggs, {dc.Cores}} {
			for _, row := range tier {
				for _, s := range row {
					addSwitch(s)
				}
			}
		}
		if dc.Border != nil {
			addSwitch(dc.Border)
		}
	}
	for _, h := range sim.Topo.Hosts {
		addPort(h.NIC())
	}
	for _, c := range conns {
		if c == nil {
			continue
		}
		s := c.Stats()
		tc.conns.PktsSent += s.PktsSent
		tc.conns.PktsRetrans += s.PktsRetrans
		tc.conns.AcksReceived += s.AcksReceived
		tc.conns.MarkedAcks += s.MarkedAcks
		tc.conns.Timeouts += s.Timeouts
		tc.conns.FastRetrans += s.FastRetrans
		tc.conns.NacksReceived += s.NacksReceived
	}
	for _, il := range borderLinks(sim) {
		s := il.Link.Stats()
		tc.borderDrops += s.RandomDrops
		tc.borderDeliv += s.Delivered
	}
	if sim.Sharded() {
		for i := 0; i < sim.Cluster().Shards(); i++ {
			tc.shardExecuted = append(tc.shardExecuted, sim.Cluster().Shard(i).Sched.Executed())
		}
	}
}

// setupTimes builds a ready-to-run Sim at least minBuilds times, and on until
// the builds add up to enough (a millisecond build needs a few hundred for a
// steady median), and returns each build's duration in seconds. Nothing is run; each Sim is dropped and collected before the next
// build, so that the builds' garbage is not what sets the process's peak RSS.
func (w def) setupTimes(seed uint64, scale float64, workers, minBuilds int, enough time.Duration) ([]float64, error) {
	const maxBuilds = 501
	var out []float64
	var total time.Duration
	for len(out) < minBuilds || (total < enough && len(out) < maxBuilds) {
		runtime.GC()
		t0 := time.Now()
		if _, _, _, err := w.prepare(seed, scale, workers, nil, nil, -1); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		total += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

// reading is one reported number: the median of n values with its
// quartiles, or a single value (n = 1).
type reading struct {
	value, median, q1, q3 float64
	n                     int
}

func single(v float64) reading { return reading{value: v, median: v, q1: v, q3: v, n: 1} }

// undisturbed reports the lower quartile in place of the median. It is for
// the times of whole repetitions: on the shared runner the neighbours only
// ever slow a repetition down, for seconds to minutes at a time, so the
// median of a run's seven to ten repetitions moves with how many of them
// were hit, and the lower quartile — the second or third fastest — moves
// less. Unlike the minimum it does not fall as a run fits more repetitions.
func (r reading) undisturbed() reading {
	r.value = r.q1
	return r
}

// summarize returns the median and quartiles of vs, the quartiles computed
// as Python's statistics.quantiles(vs, n=4) does (exclusive method), which
// is what the driver applies across runs.
func summarize(vs []float64) reading {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return reading{}
	}
	if n == 1 {
		return single(s[0])
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return reading{value: at(2), median: at(2), q1: at(1), q3: at(3), n: n}
}

func pick(rs []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// Host calibration: two fixed loops whose time depends only on the box, so
// readings from different boxes can be normalised and a run whose box
// changed speed under it flags itself.

var calibSink uint64

// calibCPUNs is the time per step of a dependent integer multiply-add chain.
func calibCPUNs() float64 {
	const n = 1 << 24
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	d := time.Since(t0)
	calibSink += x
	return float64(d.Nanoseconds()) / n
}

// calibMemNs is the time per load of a pointer chase over 64 MiB, far larger
// than any cache. The chain is a full-period linear congruential map (Hull-
// Dobell: odd increment, multiplier ≡ 1 mod 4, power-of-two modulus), so
// every load depends on the one before and lands far from it. It runs after
// the workload's peak RSS has been read, so its buffer never counts toward
// peak_rss_mb.
func calibMemNs() float64 {
	const entries = 64 << 20 / 4
	const steps = 1 << 19
	next := make([]uint32, entries)
	for i := range next {
		next[i] = (uint32(i)*1664525 + 1013904223) % entries
	}
	p := uint32(0)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		p = next[p]
	}
	d := time.Since(t0)
	calibSink += uint64(p)
	return float64(d.Nanoseconds()) / steps
}

// hostMeta describes the box and the build, one "info" line each.
func hostMeta() []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"cpu=" + strings.ReplaceAll(cpu, " ", "_"),
		"commit=" + commit,
	}
}

// hermetic refuses to run under the environment switches that change the
// engine, delivery mode, digest mode or EC scheme behind the harness: the
// benchmark chooses its engine explicitly and must measure the defaults.
func hermetic() error {
	for _, k := range []string{"UNO_SHARDS", "UNO_BATCH", "UNO_DIGEST_DEFER", "UNO_EC"} {
		if v, ok := os.LookupEnv(k); ok {
			return fmt.Errorf("%s=%q is set; unset it: the benchmark measures the default modes and picks its engine itself", k, v)
		}
	}
	return nil
}
