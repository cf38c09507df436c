// Command bench is the repository's benchmark: four fixed-input workloads on
// the full dual-DC fat tree, measured end to end with tracing off and layer
// by layer in a separate traced run. BENCHMARK.json at the repository root
// names its workloads, metrics and regression bounds; README.md in this
// directory explains how to read the output.
//
//	bash bench/run.sh --workload perm_classic --seed 1 --seconds 26 --trace 0
//	bash bench/run.sh                 # every workload, each in a child process
//	bash bench/run.sh --trace 1       # the same, traced: per-layer metrics
//	bash bench/run.sh --aa            # the whole set twice, compared to the bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/topo"
)

const (
	minReps     = 7  // timed repetitions per run, at least
	setupBuilds = 31 // builds behind setup_s, at least
	// wallCap stops adding repetitions well inside the driver's 180 s
	// limit on a box much slower than the one the sizes were tuned on.
	wallCap = 120 * time.Second
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	outDir   string
	aa       bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run in this process; empty runs all four, each in a child process")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same flows, loss draws and digests")
	fs.Float64Var(&cfg.seconds, "seconds", 26, "how long to keep adding timed repetitions")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink the frozen sizes (test suite only; results at scale != 1 are not benchmark results)")
	fs.StringVar(&cfg.outDir, "outdir", "bench/out", "where the traced run writes trace-<workload>.jsonl")
	fs.BoolVar(&cfg.aa, "aa", false, "run the whole set twice and compare every end-to-end metric to its bound in ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1 || cfg.trace < 0 || cfg.trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if err := hermetic(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var err error
	switch {
	case cfg.aa:
		err = runAA(cfg, args, stdout)
	case cfg.workload == "":
		_, err = runAll(args, stdout)
	default:
		err = runOne(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its metrics, ending
// with the result line. It returns an error when an output check failed.
func runOne(cfg config, out io.Writer) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	rep := newReport(out, w.name)
	for _, m := range hostMeta() {
		rep.info("%s", m)
	}
	rep.info("seed=%d seconds=%g scale=%g trace=%d", cfg.seed, cfg.seconds, cfg.scale, cfg.trace)
	rep.info("model=numerically-unvalidated (the repo holds no numeric reference results; no error figure)")

	var res result
	if cfg.trace == 1 {
		res, err = runTraced(cfg, w, rep)
	} else {
		res, err = runEndToEnd(cfg, w, rep)
	}
	if err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d output checks failed, %d of %d flows unfinished", w.name, rep.failures, res.Failed, res.Attempted)
	}
	return nil
}

func workers() int { return min(2, runtime.NumCPU()) }

// reference runs the checks every run starts with and returns the untimed
// warm-up repetition every later repetition must reproduce.
func reference(cfg config, w def, rep *report) (repResult, error) {
	inv, err := w.repetition(cfg.seed, repOpts{scale: cfg.scale * invariantScale, workers: workers(), invariants: true})
	if err != nil {
		return inv, err
	}
	rep.check("invariants", len(inv.violations) == 0 && inv.completed == inv.flows,
		"%d violations, %d of %d flows complete at scale %g", len(inv.violations), inv.completed, inv.flows, cfg.scale*invariantScale)
	for i, v := range inv.violations {
		if i == 5 {
			break
		}
		rep.info("violation %s", v)
	}
	ref, err := w.repetition(cfg.seed, repOpts{scale: cfg.scale, workers: workers()})
	if err != nil {
		return ref, err
	}
	rep.check("flow-set", ref.flowset == ref.wantSet && ref.completed == ref.flows,
		"completed %d of %d scheduled flows", ref.completed, ref.flows)
	rep.info("digest=%#016x events=%d flows=%d completed=%d flows_failed_frac=%g",
		ref.digest, ref.events, ref.flows, ref.completed, float64(ref.flows-ref.completed)/float64(ref.flows))
	rep.info("flowset=%#016x payload_bytes=%d slowdown_samples=%d", ref.flowset, ref.payload, ref.completed)
	return ref, nil
}

// sameOutputs: two repetitions of one seed must agree on all three.
func sameOutputs(a, b repResult) bool {
	return a.digest == b.digest && a.events == b.events && a.completed == b.completed
}

// reproduces checks that a later repetition gave the warm-up's outputs.
func reproduces(rep *report, what string, got, ref repResult) {
	rep.check(what, sameOutputs(got, ref), "digest %#016x events %d completed %d", got.digest, got.events, got.completed)
}

func runEndToEnd(cfg config, w def, rep *report) (result, error) {
	start := time.Now()
	calib0 := calibCPUNs()

	// A third of a second of builds at the frozen run length.
	setups, err := w.setupTimes(cfg.seed, cfg.scale, workers(), setupBuilds, time.Duration(cfg.seconds/80*float64(time.Second)))
	if err != nil {
		return result{}, err
	}
	rep.set("setup_s", summarize(setups))
	setupDone := time.Now()

	ref, err := reference(cfg, w, rep)
	if err != nil {
		return result{}, err
	}
	warm := time.Now()
	var reps []repResult
	attempted, failed, mismatches := 0, 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(reps) < minReps || time.Now().Before(deadline) {
		if len(reps) >= 3 && time.Since(start) > wallCap {
			break
		}
		r, err := w.repetition(cfg.seed, repOpts{scale: cfg.scale, workers: workers()})
		if err != nil {
			return result{}, err
		}
		if !sameOutputs(r, ref) {
			mismatches++
			rep.info("repetition %d: digest %#016x events %d completed %d", len(reps)+1, r.digest, r.events, r.completed)
		}
		reps = append(reps, r)
		attempted += r.flows
		failed += r.flows - r.completed
	}
	rep.check("reproducible", mismatches == 0, "%d of %d timed repetitions gave the warm-up's digest, event count and completed flows", len(reps)-mismatches, len(reps))
	peak := peakRSSMB() // before the calibration buffer below is allocated
	rep.info("phase_s set-up=%.2f checks+warm-up=%.2f timed=%.2f", setupDone.Sub(start).Seconds(),
		warm.Sub(setupDone).Seconds(), time.Since(warm).Seconds())

	walls := pick(reps, func(r repResult) float64 { return r.wall.Seconds() })
	rep.info("wall_s_reps=%s", strings.ReplaceAll(strings.Trim(fmt.Sprintf("%.3f", walls), "[]"), " ", ","))
	rep.set("wall_s", summarize(walls).undisturbed())
	rep.set("cpu_s", summarize(pick(reps, func(r repResult) float64 { return r.cpu.Seconds() })).undisturbed())
	rep.set("alloc_mb", summarize(pick(reps, func(r repResult) float64 { return float64(r.allocB) / 1e6 })))
	rep.set("peak_rss_mb", single(peak))
	rep.set("fct_slowdown_p50", single(ref.p50))
	rep.set("fct_slowdown_p99", single(ref.p99))
	rep.set("goodput_gbps", single(ref.goodput))

	calib1 := calibCPUNs()
	rep.info("host.calib_cpu_ns=%.4g host.calib_mem_ns=%.4g host.calib_drift=%.4g", calib0, calibMemNs(), calib1/calib0-1)
	return rep.finish(endToEnd, attempted, failed)
}

func runTraced(cfg config, w def, rep *report) (result, error) {
	calib0 := calibCPUNs()
	timerNs := timerCostNs()
	nw := workers()
	d := time.Duration(cfg.seconds / 52 * float64(time.Second)) // per isolated drive: 0.5 s at the frozen run length

	ref, err := reference(cfg, w, rep)
	if err != nil {
		return result{}, err
	}
	// Untraced repetitions: the base for overhead, ns/event and GC numbers.
	var reps []repResult
	for i := 0; i < 3; i++ {
		r, err := w.repetition(cfg.seed, repOpts{scale: cfg.scale, workers: nw})
		if err != nil {
			return result{}, err
		}
		reproduces(rep, fmt.Sprintf("untraced-%d", i+1), r, ref)
		reps = append(reps, r)
	}
	wall := summarize(pick(reps, func(r repResult) float64 { return r.wall.Seconds() })).value

	shards := 1
	if w.sharded {
		shards = topo.DefaultConfig().NumDCs
	}
	tr := newTracer(w.name)
	pr := newProbes(shards, 64, timerNs)
	traced, err := w.repetition(cfg.seed, repOpts{scale: cfg.scale, workers: nw, tr: tr, probes: pr})
	if err != nil {
		return result{}, err
	}
	reproduces(rep, "traced", traced, ref)
	tc := traced.traced

	// The ledger divides by the time one goroutine needs for the work, so
	// on the sharded workload it needs a workers = 1 repetition; the same
	// repetition gives the engine's speed-up.
	serialWall, speedup := wall, 1.0
	if w.sharded && nw > 1 {
		one, err := w.repetition(cfg.seed, repOpts{scale: cfg.scale, workers: 1})
		if err != nil {
			return result{}, err
		}
		reproduces(rep, "workers-1", one, ref)
		serialWall, speedup = one.wall.Seconds(), one.wall.Seconds()/wall
	}

	count := func(name string, v float64) { rep.set(name, single(v)) }
	frac := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	// Counts from the traced repetition.
	count("eventq.events", float64(traced.events))
	count("eventq.pending_peak", float64(tc.pendingPeak))
	count("netsim.pkts_sent", float64(tc.sent))
	count("netsim.pkt_hops", float64(tc.hops))
	count("netsim.drops_tail", float64(tc.drops[netsim.DropTail]))
	count("netsim.drops_loss", float64(tc.drops[netsim.DropLoss]))
	count("netsim.drops_linkdown", float64(tc.drops[netsim.DropLink]))
	count("netsim.ecn_marks", float64(tc.ports.ECNMarks))
	count("netsim.trims", float64(tc.ports.Trims))
	count("netsim.cluster.windows", float64(tc.windows))
	balance := 1.0
	if len(tc.shardExecuted) > 0 {
		var most uint64
		for _, e := range tc.shardExecuted {
			most = max(most, e)
		}
		balance = frac(most, traced.events)
	}
	count("netsim.cluster.shard_balance", balance)
	count("netsim.cluster.speedup", speedup)
	count("transport.flows", float64(traced.flows))
	count("transport.pkts_sent", float64(tc.conns.PktsSent))
	count("transport.acks", float64(tc.conns.AcksReceived))
	count("transport.retx_frac", frac(tc.conns.PktsRetrans, tc.conns.PktsSent))
	count("transport.marked_ack_frac", frac(tc.conns.MarkedAcks, tc.conns.AcksReceived))
	count("transport.timeouts", float64(tc.conns.Timeouts))
	count("transport.fast_retx", float64(tc.conns.FastRetrans))
	count("transport.nacks", float64(tc.conns.NacksReceived))
	count("core.unocc.calls", float64(tc.meters.ccAck.calls))
	count("core.unocc.onack_ns", tc.meters.ccAck.meanNs(timerNs))
	count("core.unolb.calls", float64(tc.meters.lbAssign.calls))
	count("core.unolb.assign_ns", tc.meters.lbAssign.meanNs(timerNs))
	count("core.policies_us_per_flow", tc.policies.meanNs(timerNs)/1e3)
	count("failure.loss_rate", frac(tc.borderDrops, tc.borderDrops+tc.borderDeliv))
	count("workload.gen_ms", tr.durMs(spanGenerate))
	count("harness.schedule_ms", tr.durMs(spanSchedule))
	count("harness.results_ms", tr.durMs(spanResults))
	count("stats.summarize_ms", tr.durMs(spanFCTStats))
	count("harness.ns_per_event", wall*1e9/float64(ref.events))
	count("harness.events_per_s", float64(ref.events)/wall)
	rep.set("runtime.gc_cycles", summarize(pick(reps, func(r repResult) float64 { return float64(r.gcCycles) })))
	rep.set("runtime.gc_pause_ms", summarize(pick(reps, func(r repResult) float64 { return float64(r.gcPauseNs) / 1e6 })))
	count("trace.overhead_frac", traced.wall.Seconds()/wall-1)

	// Unit costs from the isolated drives.
	pop16, pop4k, pop64k := driveSchedPop(d, 16), driveSchedPop(d, 4096), driveSchedPop(d, 65536)
	timerReset := driveTimerReset(d)
	hop := driveHop(d)
	count("eventq.sched_pop_ns_16", pop16)
	count("eventq.sched_pop_ns_4096", pop4k)
	count("eventq.sched_pop_ns_65536", pop64k)
	count("eventq.timer_reset_ns", timerReset)
	fabricHop, err := driveFabricHop(d)
	if err != nil {
		return result{}, err
	}
	count("netsim.hop_ns", hop)
	count("netsim.fabric_hop_ns", fabricHop)
	count("netsim.port_enqueue_ns", drivePortEnqueue(d))
	count("netsim.digest_fold_ns", driveDigestFold(d))
	count("netsim.pool_cycle_ns", drivePoolCycle(d))
	idle, err := driveIdleWindow(d, nw)
	if err != nil {
		return result{}, err
	}
	count("netsim.cluster.idle_window_us", idle/1e3)
	flow, err := driveFlowCycle(d)
	if err != nil {
		return result{}, err
	}
	pkt, err := drivePktPath(d)
	if err != nil {
		return result{}, err
	}
	count("transport.flow_cycle_us", flow.ns/1e3)
	count("transport.alloc_b_per_flow", flow.allocB)
	count("transport.pkt_path_ns", pkt.ns)
	for _, c := range harness.Contenders() {
		switch c.Name {
		case "gemini", "mprdma", "bbr", "dctcp", "swift":
			onAck, _, err := policyNs(harness.Stack{Name: c.Name, Phantom: c.Phantom, QCN: c.QCN, Policies: c.Policy}, timerNs)
			if err != nil {
				return result{}, err
			}
			count("baselines."+c.Name+".onack_ns", onAck)
		}
	}
	for _, st := range []harness.Stack{
		harness.StackUnoCCWithLB("rps", false, harness.NewRPS),
		harness.StackUnoCCWithLB("plb", false, harness.NewPLB),
	} {
		_, assign, err := policyNs(st, timerNs)
		if err != nil {
			return result{}, err
		}
		count("lb."+st.Name+".assign_ns", assign)
	}
	rsEnc, rsRec, err := driveRS(d)
	if err != nil {
		return result{}, err
	}
	ftEnc, ftDec, err := driveFountain(d)
	if err != nil {
		return result{}, err
	}
	count("ec.rs_encode_mbps", rsEnc)
	count("ec.rs_reconstruct_mbps", rsRec)
	count("ec.fountain_encode_mbps", ftEnc)
	count("ec.fountain_decode_mbps", ftDec)
	rep.info("ec.* move no end-to-end metric: the simulator carries no payload, so codec speed is the paper's §6 software-shim cost only")
	count("failure.ge_drop_ns", driveGEDrop(d))
	poisson, err := drivePoisson(d)
	if err != nil {
		return result{}, err
	}
	count("workload.poisson_ns_per_flow", poisson)
	count("stats.summarize_ns_per_sample", driveSummarize(d))
	count("harness.runparallel_us_per_job", driveRunParallel(d)/1e3)
	buildClassic, err := buildMs(func() error {
		_, err := topo.Build(netsim.New(cfg.seed), topo.DefaultConfig())
		return err
	})
	if err != nil {
		return result{}, err
	}
	buildCluster, err := buildMs(func() error {
		_, err := topo.BuildCluster(netsim.NewCluster(cfg.seed, 2, nw), topo.DefaultConfig())
		return err
	})
	if err != nil {
		return result{}, err
	}
	count("topo.build_ms", buildClassic)
	count("topo.build_cluster_ms", buildCluster)

	// The ledger: traced counts × isolated unit costs (or sampled time)
	// over the time one goroutine needs for the run. The drives nest — a
	// packet's path contains its hops, a flow's cycle contains its one
	// packet — so each row takes the inner layers' part out, using the
	// hops its drive counted, and the rows do not overlap. An event's base
	// cost stays with the layer that scheduled it (the drives run their own
	// shallow queues); the eventq row is the extra a queue as deep as this
	// workload's costs over that.
	pop := pop4k
	if tc.pendingPeak >= 16384 { // nearer 65536 than 4096 on a log scale
		pop = pop64k
	}
	pktSelf := max(0, pkt.ns-pkt.hops*hop)
	flowSelf := max(0, flow.ns-flow.hops*hop-pktSelf)
	total := serialWall * 1e9
	rows := []struct {
		name string
		ns   float64
	}{
		{"eventq", float64(traced.events) * max(0, pop-pop16)},
		{"netsim", float64(tc.hops) * fabricHop},
		{"transport", float64(tc.conns.AcksReceived) * pktSelf},
		{"cc", tc.meters.ccAck.estNs(timerNs)},
		{"lb", tc.meters.lbAssign.estNs(timerNs) + tc.meters.lbAck.estNs(timerNs)},
		{"flow", float64(traced.flows) * (flowSelf + tc.policies.meanNs(timerNs))},
		{"post", (tr.durMs(spanResults) + tr.durMs(spanFCTStats)) * 1e6},
	}
	unattributed := 1.0
	for _, row := range rows {
		count("ledger."+row.name+"_share", row.ns/total)
		unattributed -= row.ns / total
	}
	count("ledger.unattributed_share", unattributed)
	rep.info("ledger is an estimate from outside (counts × isolated unit costs), not instrumentation; unattributed is what the estimate does not explain and may be negative")
	rep.info("ledger unit costs: deep_queue_extra=%.1fns fabric_hop=%.1fns pkt_self=%.1fns (%.0f star hops taken out) flow_self=%.1fns (%.0f star hops) over %.3fs",
		max(0, pop-pop16), fabricHop, pktSelf, pkt.hops, flowSelf, flow.hops, serialWall)

	path, err := tr.write(cfg.outDir)
	if err != nil {
		return result{}, err
	}
	rep.info("trace=%s spans=%d", path, len(tr.spans))

	calib1 := calibCPUNs()
	count("host.calib_cpu_ns", calib0)
	count("host.calib_mem_ns", calibMemNs())
	count("host.calib_drift", calib1/calib0-1)
	return rep.finish(perLayer, traced.flows, traced.flows-traced.completed)
}
