package main

import (
	"fmt"
	"sort"

	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/harness"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// Frozen sizes. They were tuned once on the 2-core runner so that one
// repetition takes about 2 s (1 s on perm_sharded): the driver allows a run
// about 35 s including build check, set-up and warm-up, and a run needs at
// least seven timed repetitions for its quartiles. Changing any of them
// changes every number the benchmark has reported, so they change only in a
// PR that re-measures the baseline.
const (
	permGroups    = 2 // groups of rounds, permGroupGap apart
	permRounds    = 4 // random permutations per group, started together
	permGroupGap  = 1 * eventq.Millisecond
	permFlowBytes = 512 << 10 // per flow; 2 × 4 × 256 flows
	permCross     = 2         // flows per round and direction that cross the border
	permObserve   = 1400 * eventq.Microsecond

	wanWaves      = 8 // alternating-direction waves
	wanWaveGap    = 20 * eventq.Millisecond
	wanPerHost    = 4         // flows per sending host per wave; 8 × 512 flows
	wanFlowBytes  = 384 << 10 // per flow
	wanDownLink   = 3         // border link failed from t = 0
	wanLossAmp    = 100       // multiplier on the Table-1 Setup 1 loss rate
	wanObserve    = wanWaves * wanWaveGap
	rpcWindow     = 400 * eventq.Microsecond
	rpcIntraLoad  = 0.30 // of host capacity, inside each DC
	rpcBorderLoad = 0.15 // of the border cut, each way
	rpcObserve    = rpcWindow + 3*eventq.Millisecond
)

// def is one benchmark workload: how its flows are generated from the seed,
// which stack and engine run them, and what is injected into the fabric.
type def struct {
	name    string
	stack   func() harness.Stack
	sharded bool        // per-DC engine with min(2, nproc) workers
	horizon eventq.Time // by when the flows are expected complete; see deadlines
	// observe is the simulated instant goodput is read at: payload of the
	// flows complete by then, over the time since t = 0. A fixed instant
	// (not the last completion) keeps one straggler in an RTO back-off
	// chain from setting the number.
	observe eventq.Time
	specs   func(seed uint64, scale float64, cfg topo.Config) []workload.FlowSpec
	inject  func(sim *harness.Sim, seed uint64) // loss processes and failures; may be nil
}

var workloads = []def{
	{name: "perm_classic", stack: harness.StackUnoECMP, horizon: 64 * eventq.Millisecond,
		observe: permObserve, specs: permSpecs},
	{name: "perm_sharded", stack: harness.StackUnoECMP, horizon: 64 * eventq.Millisecond,
		observe: permObserve, specs: permSpecs, sharded: true},
	{name: "wan_lossy_ec", stack: harness.StackUno, horizon: 1280 * eventq.Millisecond,
		observe: wanObserve, specs: wanSpecs, inject: wanInject},
	{name: "rpc_storm", stack: harness.StackUno, horizon: 64 * eventq.Millisecond,
		observe: rpcObserve, specs: rpcSpecs},
}

func findWorkload(name string) (def, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return def{}, fmt.Errorf("unknown workload %q", name)
}

// shrink scales one workload's work for the invariant repetition and the
// test suite: flows get smaller first, down to a four-packet floor so each
// still has a window, and below that the flow list is thinned, so the work
// stays proportional to scale. It returns the flow size and the share of
// flows to keep.
func shrink(bytes int64, scale float64) (size int64, keep float64) {
	const floor = 16 << 10
	if s := float64(bytes) * scale; s < floor {
		return floor, s / floor
	}
	return int64(float64(bytes) * scale), 1
}

// thin keeps an evenly spread share of specs.
func thin(specs []workload.FlowSpec, keep float64) []workload.FlowSpec {
	if keep >= 1 {
		return specs
	}
	out := specs[:0]
	for i, s := range specs {
		if int(float64(i+1)*keep) > int(float64(i)*keep) {
			out = append(out, s)
		}
	}
	return out
}

func interDC(cfg topo.Config) func(src, dst int) bool {
	perDC := cfg.HostsPerDC()
	return func(src, dst int) bool { return (src < perDC) != (dst < perDC) }
}

// permSpecs: permGroups groups of permRounds random permutations over all
// hosts; a group's rounds start together, so every host sends and receives
// permRounds flows at once. A round permutes each DC within itself and then
// swaps the destinations of permCross random host pairs across the border:
// it stays a permutation of all hosts, and a group puts one flow per border
// link on the cut instead of the 16:1 border incast a free permutation
// makes, whose RTO stragglers would set the tail. Two groups rather than
// eight rounds at once keep the receiver incast at 4:1, below what the port
// queues drop at, while p99 still rests on 2048 flows.
// workload.Permutation panics on a nil labeller, so one is always passed.
func permSpecs(seed uint64, scale float64, cfg topo.Config) []workload.FlowSpec {
	r := rng.New(seed ^ 0x7065726d)
	perDC := cfg.HostsPerDC()
	size, keep := shrink(permFlowBytes, scale)
	var specs []workload.FlowSpec
	for g := 0; g < permGroups; g++ {
		for i := 0; i < permRounds; i++ {
			a := workload.Permutation(workload.HostRange{Lo: 0, Hi: perDC}, size, r, interDC(cfg))
			b := workload.Permutation(workload.HostRange{Lo: perDC, Hi: 2 * perDC}, size, r, interDC(cfg))
			ia, ib := r.Perm(perDC), r.Perm(perDC)
			for k := 0; k < permCross; k++ {
				x, y := &a[ia[k]], &b[ib[k]]
				x.Dst, y.Dst = y.Dst, x.Dst
				x.InterDC, y.InterDC = true, true
			}
			for _, s := range append(a, b...) {
				s.Start = eventq.Time(g) * permGroupGap
				specs = append(specs, s)
			}
		}
	}
	return thin(specs, keep)
}

// wanSpecs: wanWaves waves, directions alternating; in a wave every host of
// the sending DC opens wanPerHost flows to distinct random hosts of the
// other DC, the starts spread evenly over the wave so the border cut is
// loaded but never bursts past its queues: what the flows lose, they lose
// to the loss process and the dead link, not to their own incast.
func wanSpecs(seed uint64, scale float64, cfg topo.Config) []workload.FlowSpec {
	r := rng.New(seed ^ 0x77616e)
	perDC := cfg.HostsPerDC()
	perWave := perDC * wanPerHost
	size, keep := shrink(wanFlowBytes, scale)
	specs := make([]workload.FlowSpec, 0, wanWaves*perWave)
	for w := 0; w < wanWaves; w++ {
		srcLo, dstLo := 0, perDC
		if w%2 == 1 {
			srcLo, dstLo = perDC, 0
		}
		for k := 0; k < wanPerHost; k++ {
			for i, d := range r.Perm(perDC) {
				n := k*perDC + i
				specs = append(specs, workload.FlowSpec{
					Src: srcLo + i, Dst: dstLo + d, Size: size,
					Start:   eventq.Time(w)*wanWaveGap + eventq.Time(n)*wanWaveGap/eventq.Time(perWave),
					InterDC: true,
				})
			}
		}
	}
	return thin(specs, keep)
}

// wanInject fails one border link (both directions) for the whole run and
// puts a correlated loss process on every border link in both directions.
func wanInject(sim *harness.Sim, seed uint64) {
	sim.Topo.FailBorderLink(0, 1, wanDownLink)
	lr := rng.New(seed ^ 0x6c6f7373)
	for _, il := range borderLinks(sim) {
		ge := failure.NewTable1Loss(failure.Setup1, lr.Split())
		ge.PGoodToBad *= wanLossAmp
		il.Link.SetLoss(ge)
	}
}

func borderLinks(sim *harness.Sim) []topo.InterLink {
	return append(append([]topo.InterLink(nil), sim.Topo.InterLinkFor(0, 1)...), sim.Topo.InterLinkFor(1, 0)...)
}

// rpcSpecs: Poisson GoogleRPC arrivals inside each DC and across the border
// in both directions, merged into one arrival-ordered list.
func rpcSpecs(seed uint64, scale float64, cfg topo.Config) []workload.FlowSpec {
	r := rng.New(seed ^ 0x727063)
	perDC := cfg.HostsPerDC()
	dc := [2]workload.HostRange{{Lo: 0, Hi: perDC}, {Lo: perDC, Hi: 2 * perDC}}
	window := eventq.Time(float64(rpcWindow) * scale)
	// PoissonConfig.Load is a share of the sources' aggregate NIC rate;
	// express the border-cut load in that unit.
	borderAsHostLoad := rpcBorderLoad * float64(cfg.BorderLinks) / float64(perDC)
	var specs []workload.FlowSpec
	for _, p := range []struct {
		src, dst int
		load     float64
	}{{0, 0, rpcIntraLoad}, {1, 1, rpcIntraLoad}, {0, 1, borderAsHostLoad}, {1, 0, borderAsHostLoad}} {
		part, err := workload.Poisson(workload.PoissonConfig{
			CDF: workload.GoogleRPC, Load: p.load, LinkBps: cfg.LinkBps,
			Sources: dc[p.src], Dests: dc[p.dst], Duration: window, InterDC: p.src != p.dst,
		}, r.Split())
		if err != nil {
			panic(err) // the constants above are in range
		}
		specs = append(specs, part...)
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Start < specs[j].Start })
	return specs
}

// prepare builds a ready-to-run Sim: topology and endpoints, injected
// faults, generated flows, and the flows scheduled. No event has executed.
// This is exactly what setup_s times. wrap, when non-nil, substitutes the
// traced run's instrumented stack; tr, when non-nil, records a span per
// step under parent.
//
// The connections come from Schedule's return value: on the classic engine
// Sim.Conns() keeps the nil placeholders it copied before the flows started.
func (w def) prepare(seed uint64, scale float64, workers int, wrap func(harness.Stack) harness.Stack,
	tr *tracer, parent int) (*harness.Sim, []workload.FlowSpec, []*transport.Conn, error) {
	cfg := topo.DefaultConfig()
	stack := w.stack()
	if wrap != nil {
		stack = wrap(stack)
	}
	shards := 0
	if w.sharded {
		shards = workers
	}
	id := tr.begin("harness.NewSimShards", parent)
	sim, err := harness.NewSimShards(seed, cfg, stack, shards)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	if w.inject != nil {
		w.inject(sim, seed)
	}
	id = tr.begin(spanGenerate, parent)
	specs := w.specs(seed, scale, cfg)
	tr.end(id)
	id = tr.begin(spanSchedule, parent)
	conns := sim.Schedule(specs)
	tr.end(id)
	return sim, specs, conns, nil
}
