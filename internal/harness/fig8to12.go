package harness

import (
	"fmt"

	"uno/internal/eventq"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/workload"
)

// Fig8 reproduces Figure 8: incast with 8 flows drawn from three
// intra/inter mixes (8+0, 4+4, 0+8), packet spraying for every scheme, and
// per-flow rate convergence for Uno.
func Fig8(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig8", Title: "Incast: FCTs per scheme and Uno's rate fairness"}
	flowSize := int64(cfg.scaled(64)) << 20
	horizon := eventq.Time(cfg.scaled(80)) * eventq.Millisecond

	fctTbl := r.NewTable("completion times (µs)", "scenario", "scheme", "mean FCT", "p99 FCT")
	fairTbl := r.NewTable("Uno rate convergence", "scenario", "mean Jain (mid)", "time-to-fairness")

	topoCfg := topoForRTTRatio(128)
	for _, sc := range fig8Scenarios {
		specs := fig8Specs(topoCfg, sc.intra, sc.inter, flowSize)
		for _, base := range BaselineStacks() {
			stack := withLB(base, NewRPS)
			sim := cfg.newSim(cfg.Seed, topoCfg, stack)
			conns := sim.Schedule(specs)
			var rs *RateSampler
			if base.Name == "uno" {
				rs = sim.SampleRates(specs, conns, horizon/48, horizon)
				classes := make([]bool, len(specs))
				for i, sp := range specs {
					classes[i] = sp.InterDC
				}
				rs.SetClasses(classes)
			}
			sim.Run(horizon)
			all := sim.AllFCTStats(false)
			fctTbl.AddRow(sc.name, base.Name, all.Mean, all.P99)
			r.FoldDigest(sim.Digest())
			if rs != nil {
				fairTbl.AddRow(sc.name, rs.ContestedJain(), fmtDur(rs.TimeToFairness(0.9, 3)))
			}
		}
	}
	r.Note("8 × %s flows incast to one host; packet spraying for all schemes (as in the paper)", fmtBytes(flowSize))
	return r
}

// fig8Scenarios are Figure 8's intra/inter sender mixes.
var fig8Scenarios = []struct {
	name         string
	intra, inter int
}{
	{"8 intra / 0 inter", 8, 0},
	{"4 intra / 4 inter", 4, 4},
	{"0 intra / 8 inter", 0, 8},
}

// fig8Specs places Figure 8's incast onto host 0: intra sender i in pod
// (i+1) mod K of DC 1 — the eighth wraps to the receiver's pod at K = 8 —
// and inter sender i in pod i of DC 2, each at host offset i of its pod.
func fig8Specs(cfg topo.Config, intra, inter int, size int64) []workload.FlowSpec {
	perDC := cfg.HostsPerDC()
	hpp := perDC / cfg.K
	var specs []workload.FlowSpec
	for i := 0; i < intra; i++ {
		specs = append(specs, workload.FlowSpec{
			Src: (i+1)%cfg.K*hpp + i, Dst: 0, Size: size, InterDC: false,
		})
	}
	for i := 0; i < inter; i++ {
		specs = append(specs, workload.FlowSpec{
			Src: perDC + i*hpp + i, Dst: 0, Size: size, InterDC: true,
		})
	}
	return specs
}

// Fig9 reproduces Figure 9: a random permutation across both datacenters,
// with the default 8 border links (800 Gb/s, oversubscribed) and with a
// fully provisioned inter-DC cut; Uno with ECMP vs Uno with UnoLB vs the
// baselines.
func Fig9(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig9", Title: "Permutation workload across two DCs"}
	flowSize := int64(cfg.scaled(2)) << 20
	horizon := eventq.Time(cfg.scaled(400)) * eventq.Millisecond

	stacks := []Stack{StackUno(), StackUnoECMP(), StackGemini(), StackMPRDMABBR()}
	tbl := r.NewTable("mean / p99 FCT (µs)", "provisioning", "scheme",
		"intra mean", "intra p99", "inter mean", "inter p99")

	for _, prov := range []struct {
		name  string
		links int
	}{
		{"8 border links (800G)", 8},
		{"fully provisioned", 128},
	} {
		for _, stack := range stacks {
			topoCfg := topo.DefaultConfig()
			topoCfg.BorderLinks = prov.links
			sim := cfg.newSim(cfg.Seed, topoCfg, stack)
			wr := rng.New(cfg.Seed + 7)
			specs := workload.Permutation(
				workload.HostRange{Lo: 0, Hi: len(sim.Topo.Hosts)},
				flowSize, wr,
				func(src, dst int) bool {
					return !sim.Topo.SameDC(sim.Topo.Hosts[src].ID(), sim.Topo.Hosts[dst].ID())
				})
			sim.Schedule(specs)
			sim.Run(horizon)
			intra, inter := sim.FCTStats(false)
			tbl.AddRow(prov.name, stack.Name, intra.Mean, intra.P99, inter.Mean, inter.P99)
			r.FoldDigest(sim.Digest())
			if sim.Pending() > 0 {
				r.Note("%s/%s: %d flows missed the horizon", prov.name, stack.Name, sim.Pending())
			}
		}
	}
	r.Note("one %s flow per host to a random distinct destination", fmtBytes(flowSize))
	return r
}

// realisticSpecs generates the paper's mixed workload: WebSearch intra-DC
// flows plus Alibaba-WAN inter-DC flows, Poisson arrivals at the given
// load (intra load over host capacity, inter load over the border cut),
// DC:WAN byte ratio ≈ 4:1 at equal loads.
func realisticSpecs(sim *Sim, load float64, window eventq.Time,
	maxIntra, maxInter int, seed uint64) []workload.FlowSpec {
	perDC := sim.Topo.Cfg.HostsPerDC()
	wr := rng.New(seed)
	var specs []workload.FlowSpec
	for dc := 0; dc < 2; dc++ {
		lo := dc * perDC
		intra, err := workload.Poisson(workload.PoissonConfig{
			CDF:      workload.WebSearch,
			Load:     load,
			LinkBps:  sim.Topo.Cfg.LinkBps / 16, // sub-sampled sources: keep quick runs tractable
			Sources:  workload.HostRange{Lo: lo, Hi: lo + perDC},
			Dests:    workload.HostRange{Lo: lo, Hi: lo + perDC},
			Duration: window,
			MaxFlows: maxIntra / 2,
		}, wr.Split())
		if err != nil {
			panic(err)
		}
		specs = append(specs, intra...)
	}
	cut := sim.Topo.Cfg.LinkBps * int64(sim.Topo.Cfg.BorderLinks)
	for dc := 0; dc < 2; dc++ {
		lo, rlo := dc*perDC, (1-dc)*perDC
		inter, err := workload.Poisson(workload.PoissonConfig{
			CDF:      workload.AlibabaWAN,
			Load:     load / 2, // both directions share the duplex cut
			LinkBps:  cut / int64(perDC),
			Sources:  workload.HostRange{Lo: lo, Hi: lo + perDC},
			Dests:    workload.HostRange{Lo: rlo, Hi: rlo + perDC},
			Duration: window,
			MaxFlows: maxInter / 2,
			InterDC:  true,
		}, wr.Split())
		if err != nil {
			panic(err)
		}
		specs = append(specs, inter...)
	}
	return specs
}

// realOut is one realistic-mix run's harvest.
type realOut struct {
	intraMean, intraP99, interMean, interP99 float64
	missed                                   int
	digest                                   uint64
}

// runRealistic executes the realistic mix on one stack and reports
// per-class FCT summaries.
func runRealistic(cfg Config, topoCfg topo.Config, stack Stack, load float64,
	slowdown bool) realOut {
	sim := cfg.newSim(cfg.Seed, topoCfg, stack)
	window := eventq.Time(cfg.scaled(2)) * eventq.Millisecond
	specs := realisticSpecs(sim, load, window, cfg.scaled(200), cfg.scaled(30), cfg.Seed+13)
	sim.Schedule(specs)
	sim.Run(eventq.Time(cfg.scaled(150)) * eventq.Millisecond)
	intra, inter := sim.FCTStats(slowdown)
	return realOut{intra.Mean, intra.P99, inter.Mean, inter.P99, sim.Pending(), sim.Digest()}
}

// Fig10 reproduces Figure 10: the realistic mixed workload at 20-60% load.
func Fig10(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig10", Title: "Realistic workload (WebSearch intra + Alibaba WAN inter)"}
	stacks := []Stack{StackUno(), StackUnoECMP(), StackGemini(), StackMPRDMABBR()}
	loads := []float64{0.2, 0.4, 0.6}
	outs := RunParallel(cfg.Parallel, len(loads)*len(stacks), func(job int) realOut {
		return runRealistic(cfg, topo.DefaultConfig(), stacks[job%len(stacks)],
			loads[job/len(stacks)], false)
	})
	tbl := r.NewTable("FCT (µs)", "load", "scheme",
		"intra mean", "intra p99", "inter mean", "inter p99")
	for li, load := range loads {
		for si, stack := range stacks {
			out := outs[li*len(stacks)+si]
			tbl.AddRow(fmt.Sprintf("%.0f%%", load*100), stack.Name,
				out.intraMean, out.intraP99, out.interMean, out.interP99)
			r.FoldDigest(out.digest)
			if out.missed > 0 {
				r.Note("load %.0f%% %s: %d flows missed the horizon", load*100, stack.Name, out.missed)
			}
		}
	}
	return r
}

// Fig11 reproduces Figure 11: FCT slowdown at 40% load as the inter/intra
// RTT ratio grows from 8 to 512.
func Fig11(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig11", Title: "FCT slowdown vs inter/intra RTT ratio (40% load)"}
	stacks := []Stack{StackUno(), StackGemini(), StackMPRDMABBR()}
	ratios := []float64{8, 32, 128, 512}
	outs := RunParallel(cfg.Parallel, len(ratios)*len(stacks), func(job int) realOut {
		return runRealistic(cfg, topoForRTTRatio(ratios[job/len(stacks)]),
			stacks[job%len(stacks)], 0.4, true)
	})
	tbl := r.NewTable("FCT slowdown (vs unloaded ideal)", "RTT ratio", "scheme",
		"intra mean", "intra p99", "inter mean", "inter p99")
	for ri, ratio := range ratios {
		for si, stack := range stacks {
			out := outs[ri*len(stacks)+si]
			tbl.AddRow(fmt.Sprintf("%.0f×", ratio), stack.Name,
				out.intraMean, out.intraP99, out.interMean, out.interP99)
			r.FoldDigest(out.digest)
			if out.missed > 0 {
				r.Note("ratio %.0f %s: %d flows missed the horizon", ratio, stack.Name, out.missed)
			}
		}
	}
	return r
}

// Fig12 reproduces Figure 12: the realistic mix at 40% load with shallow
// intra-DC buffers (≈175 KiB ≈ intra BDP) and deep inter-DC buffers
// (≈2.2 MiB ≈ 0.1× inter BDP).
func Fig12(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig12", Title: "Heterogeneous queue sizes (175 KiB intra, 2.2 MiB inter)"}
	stacks := []Stack{StackUno(), StackUnoECMP(), StackGemini(), StackMPRDMABBR()}
	tbl := r.NewTable("FCT (µs)", "scheme", "intra mean", "intra p99", "inter mean", "inter p99")
	topoCfg := topo.DefaultConfig()
	topoCfg.QueueCapIntra = 175 << 10
	topoCfg.QueueCapInter = 2252 << 10
	outs := RunParallel(cfg.Parallel, len(stacks), func(job int) realOut {
		return runRealistic(cfg, topoCfg, stacks[job], 0.4, false)
	})
	for si, stack := range stacks {
		out := outs[si]
		tbl.AddRow(stack.Name, out.intraMean, out.intraP99, out.interMean, out.interP99)
		r.FoldDigest(out.digest)
		if out.missed > 0 {
			r.Note("%s: %d flows missed the horizon", stack.Name, out.missed)
		}
	}
	return r
}
