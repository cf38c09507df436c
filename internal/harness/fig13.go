package harness

import (
	"fmt"

	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/rng"
	"uno/internal/stats"
	"uno/internal/topo"
	"uno/internal/workload"
)

// rcVariants is the Fig 13 comparison grid: UnoCC everywhere, the load
// balancer and erasure coding varying.
func rcVariants() []Stack {
	return []Stack{
		StackUnoCCWithLB("spray", false, NewRPS),
		StackUnoCCWithLB("spray+EC", true, NewRPS),
		StackUnoCCWithLB("plb", false, NewPLB),
		StackUnoCCWithLB("plb+EC", true, NewPLB),
		StackUnoCCWithLB("unolb", false, NewUnoLB),
		StackUnoCCWithLB("unolb+EC", true, NewUnoLB),
	}
}

// interPairSpecs builds n inter-DC flows on distinct host pairs.
func interPairSpecs(topoCfg topo.Config, n int, size int64) []workload.FlowSpec {
	perDC := topoCfg.HostsPerDC()
	hpp := perDC / topoCfg.K
	specs := make([]workload.FlowSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, workload.FlowSpec{
			Src:     (i * hpp) % perDC,
			Dst:     perDC + ((i*hpp + i) % perDC),
			Size:    size,
			InterDC: true,
		})
	}
	return specs
}

// Fig13A reproduces Figure 13 (A): one of the eight border links fails
// while latency-sensitive 5 MiB inter-DC flows saturate the cut; the
// experiment re-runs with fresh seeds (the paper uses 100 reruns and
// violin plots).
func Fig13A(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig13a", Title: "Border-link failure: 5 MiB inter-DC flows"}
	runs := cfg.scaled(10)
	const flowSize = 5 << 20
	const nFlows = 16
	horizon := 500 * eventq.Millisecond

	// The (stack, rerun) grid is embarrassingly parallel: every job builds
	// its own Sim and the merge below walks the outputs in job order, so
	// the report is byte-identical at any Config.Parallel.
	stacks := rcVariants()
	outs := RunParallel(cfg.Parallel, len(stacks)*runs, func(job int) simOut {
		stack, run := stacks[job/runs], job%runs
		topoCfg := topo.DefaultConfig()
		sim := cfg.newSim(cfg.Seed+uint64(run)*101, topoCfg, stack)
		sim.Topo.FailBorderLink(0, 1, run%topoCfg.BorderLinks)
		sim.Schedule(interPairSpecs(topoCfg, nFlows, flowSize))
		sim.Run(horizon)
		return harvest(sim)
	})

	tbl := r.NewTable(fmt.Sprintf("per-flow FCT over %d reruns (µs)", runs),
		"scheme", "mean", "p50", "p99", "max", "distribution", "incomplete")
	for si, stack := range stacks {
		var fcts stats.Sample
		incomplete := 0
		for run := 0; run < runs; run++ {
			out := outs[si*runs+run]
			for _, res := range out.Results {
				fcts.Add(res.FCT.Seconds() * 1e6)
			}
			incomplete += out.Pending
			r.FoldDigest(out.Digest)
		}
		tbl.AddRow(stack.Name, fcts.Mean(), fcts.Median(), fcts.P99(), fcts.Max(),
			fcts.HistogramOf(16).Sparkline(), incomplete)
	}
	r.Note("%d flows × %s per run; 1 of 8 border links down from t=0", nFlows, fmtBytes(flowSize))
	return r
}

// Fig13B reproduces Figure 13 (B): a single inter-DC flow under the
// correlated random-loss model calibrated to Table 1 (Setup 1), re-run
// with fresh seeds. Blocks are lost only when 3+ packets of a 10-packet
// block drop.
func Fig13B(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig13b", Title: "Correlated random loss: single inter-DC flow"}
	runs := cfg.scaled(10)
	const flowSize = 10 << 20
	horizon := 400 * eventq.Millisecond

	stacks := rcVariants()
	outs := RunParallel(cfg.Parallel, len(stacks)*runs, func(job int) simOut {
		stack, run := stacks[job/runs], job%runs
		topoCfg := topo.DefaultConfig()
		sim := cfg.newSim(cfg.Seed+uint64(run)*211, topoCfg, stack)
		// Amplified loss (vs Table 1's 5e-5) so the scaled-down flow
		// count still observes losses every run; correlation shape is
		// the measured one.
		lr := rng.New(cfg.Seed + uint64(run)*977)
		for _, il := range sim.Topo.InterLinkFor(0, 1) {
			ge := failure.NewTable1Loss(failure.Setup1, lr.Split())
			ge.PGoodToBad *= 100
			il.Link.SetLoss(ge)
		}
		sim.Schedule(interPairSpecs(topoCfg, 1, flowSize))
		sim.Run(horizon)
		return harvest(sim)
	})

	tbl := r.NewTable(fmt.Sprintf("FCT over %d reruns (µs)", runs),
		"scheme", "mean", "p50", "p99", "max", "distribution")
	for si, stack := range stacks {
		var fcts stats.Sample
		for run := 0; run < runs; run++ {
			out := outs[si*runs+run]
			for _, res := range out.Results {
				fcts.Add(res.FCT.Seconds() * 1e6)
			}
			r.FoldDigest(out.Digest)
		}
		tbl.AddRow(stack.Name, fcts.Mean(), fcts.Median(), fcts.P99(), fcts.Max(),
			fcts.HistogramOf(16).Sparkline())
	}
	r.Note("Gilbert-Elliott loss (Table 1 Setup 1 correlation, 100× rate) on all border links")
	return r
}

// Fig13C reproduces Figure 13 (C): data-parallel training iterations whose
// gradient Allreduce crosses the two DCs, under both link failures and
// correlated random drops; the metric is per-iteration runtime over the
// ideal (failure-free, collision-free) runtime.
func Fig13C(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig13c", Title: "Inter-DC Allreduce under failures and drops"}
	iterations := cfg.scaled(8)

	// One job per stack: the iterations within a stack share one Sim and
	// must stay serial, but the six stacks are independent.
	stacks := rcVariants()
	type allreduceOut struct {
		ratios []float64
		digest uint64
	}
	outs := RunParallel(cfg.Parallel, len(stacks), func(job int) allreduceOut {
		stack := stacks[job]
		var ratios []float64
		topoCfg := topo.DefaultConfig()
		sim := cfg.newSim(cfg.Seed, topoCfg, stack)
		perDC := topoCfg.HostsPerDC()
		wr := rng.New(cfg.Seed + 31)
		iters, err := workload.Allreduce(workload.AllreduceConfig{
			Workers:    8,
			DC0Hosts:   workload.HostRange{Lo: 0, Hi: perDC},
			DC1Hosts:   workload.HostRange{Lo: perDC, Hi: 2 * perDC},
			MinBytes:   int64(cfg.scaled(8)) << 20,
			MaxBytes:   int64(cfg.scaled(32)) << 20,
			Iterations: iterations,
		}, wr)
		if err != nil {
			panic(err)
		}
		// Random drops on every border link, plus a flapping border link.
		for _, il := range sim.Topo.InterLinkFor(0, 1) {
			ge := failure.NewTable1Loss(failure.Setup1, wr.Split())
			ge.PGoodToBad *= 100
			il.Link.SetLoss(ge)
		}
		flap := &failure.Flapper{
			Link:    sim.Topo.InterLinkFor(0, 1)[0].Link,
			DownFor: 2 * eventq.Millisecond,
			UpFor:   6 * eventq.Millisecond,
		}
		flap.Start(sim.Net.Sched, eventq.Millisecond, eventq.Second)

		cut := topoCfg.LinkBps * int64(topoCfg.BorderLinks)
		interRTT := sim.Topo.InterRTT(MTU)
		for _, it := range iters {
			start := sim.Now()
			flows := make([]workload.FlowSpec, len(it.Flows))
			copy(flows, it.Flows)
			for i := range flows {
				flows[i].Start = start
			}
			conns := sim.Schedule(flows)
			// Run until this iteration's flows all complete. Driving the
			// loop through sim.RunUntil/sim.Now (not s.Net.Sched) steps
			// every shard: with per-DC shards each step is a barrier round,
			// after which reading the conns is coordinator-safe.
			deadline := start + eventq.Second
			for sim.Now() < deadline {
				sim.RunUntil(sim.Now() + eventq.Millisecond)
				done := true
				for _, c := range conns {
					if c == nil || !c.Completed() {
						done = false
						break
					}
				}
				if done {
					break
				}
			}
			elapsed := sim.Now() - start
			ideal := workload.IdealIterationTime(it, cut, interRTT)
			ratios = append(ratios, float64(elapsed)/float64(ideal))
		}
		return allreduceOut{ratios: ratios, digest: sim.Digest()}
	})

	tbl := r.NewTable(fmt.Sprintf("iteration time / ideal, %d iterations", iterations),
		"scheme", "mean ratio", "p99 ratio", "worst")
	for si, stack := range stacks {
		var ratios stats.Sample
		for _, v := range outs[si].ratios {
			ratios.Add(v)
		}
		r.FoldDigest(outs[si].digest)
		tbl.AddRow(stack.Name, ratios.Mean(), ratios.P99(), ratios.Max())
	}
	r.Note("8 worker pairs, gradient bursts %s-%s per iteration (scaled from the paper's 70-500 MiB)",
		fmtBytes(int64(cfg.scaled(8))<<20), fmtBytes(int64(cfg.scaled(32))<<20))
	return r
}
