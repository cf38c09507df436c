package harness

import (
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/workload"
)

// The two extension experiments go beyond the paper's figures: they test
// claims the paper makes in prose (§6 on trimming, footnote 4 on Annulus)
// but does not evaluate.

// ExtTrim tests the paper's §6 argument: NDP-style packet trimming gives
// fast loss notification inside a datacenter, but for latency-bound
// inter-DC messages the notification still pays the WAN RTT — erasure
// coding recovers without any extra round trip and wins.
func ExtTrim(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "ext-trim", Title: "Packet trimming vs erasure coding (extension; paper §6 claim)"}
	tbl := r.NewTable("", "scenario", "variant", "mean FCT (µs)", "p99 FCT (µs)", "timeouts")

	run := func(scenario string, trim, ec, wanLoss bool, specs func(perDC int) []workload.FlowSpec,
		horizon eventq.Time) {
		stack := StackUnoCCWithLB("unocc", ec, NewRPS)
		topoCfg := topo.DefaultConfig()
		topoCfg.Trimming = trim
		sim := MustNewSim(cfg.Seed, topoCfg, stack)
		if wanLoss {
			// Correlated random loss on the WAN links: these are genuine
			// in-flight drops, which trimming by construction cannot
			// observe — only queue overflows can be trimmed.
			lr := rng.New(cfg.Seed + 5)
			for dc := 0; dc < 2; dc++ {
				for _, il := range sim.Topo.InterLinkFor(dc, 1-dc) {
					ge := failure.NewTable1Loss(failure.Setup1, lr.Split())
					ge.PGoodToBad *= 100
					il.Link.SetLoss(ge)
				}
			}
		}
		sim.Schedule(specs(topoCfg.HostsPerDC()))
		sim.Run(horizon)
		all := sim.AllFCTStats(false)
		timeouts := uint64(0)
		for _, c := range sim.Conns() {
			if c != nil {
				timeouts += c.Stats().Timeouts
			}
		}
		name := "plain"
		switch {
		case trim && ec:
			name = "trim+EC"
		case trim:
			name = "trim"
		case ec:
			name = "EC"
		}
		tbl.AddRow(scenario, name, all.Mean, all.P99, int(timeouts))
		r.FoldDigest(sim.Digest())
		if sim.Pending() > 0 {
			r.Note("%s/%s: %d flows missed the horizon", scenario, name, sim.Pending())
		}
	}

	// Intra-DC incast: 16 senders × 2 MiB to one host through a 1 MiB
	// queue. Trimming's fast notification should beat timeout recovery.
	intraSpecs := func(perDC int) []workload.FlowSpec {
		var specs []workload.FlowSpec
		for i := 0; i < 16; i++ {
			specs = append(specs, workload.FlowSpec{Src: 4 + i*4, Dst: 0, Size: 2 << 20})
		}
		return specs
	}
	for _, trim := range []bool{false, true} {
		run("intra incast 16:1", trim, false, false, intraSpecs, 100*eventq.Millisecond)
	}

	// Inter-DC transfers over lossy WAN links: the losses are in-flight
	// drops, so trimming never sees them and the notification advantage
	// vanishes; EC recovers without the extra WAN round trip.
	interSpecs := func(perDC int) []workload.FlowSpec {
		var specs []workload.FlowSpec
		for i := 0; i < 8; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: perDC + 4 + i*8, Dst: i * 8, Size: 5 << 20, InterDC: true,
			})
		}
		return specs
	}
	for _, variant := range []struct{ trim, ec bool }{
		{false, false}, {true, false}, {false, true},
	} {
		run("inter lossy WAN", variant.trim, variant.ec, true, interSpecs, 500*eventq.Millisecond)
	}
	r.Note("intra: trimming cuts tails (overflow → notification); inter: WAN drops are invisible to trimming, EC wins (the §6 argument)")
	return r
}

// ExtAnnulus tests footnote 4: wrapping the WAN controller with Annulus's
// near-source QCN loop under an oversubscribed border cut.
func ExtAnnulus(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "ext-annulus", Title: "Annulus near-source loop (extension; paper footnote 4)"}
	tbl := r.NewTable("", "scheme", "inter mean FCT (µs)", "inter p99 FCT (µs)", "timeouts")

	for _, stack := range []Stack{StackMPRDMABBR(), StackMPRDMABBRAnnulus()} {
		sim := MustNewSim(cfg.Seed, topo.DefaultConfig(), stack)
		perDC := sim.Topo.Cfg.HostsPerDC()
		// 16 long inter-DC transfers, 2:1 oversubscribed over the 800 Gb/s
		// border cut: the BBR flows saturate the cut and their probe
		// cycles pile up the border queues — congestion inside the source
		// DC, the regime Annulus targets.
		size := int64(cfg.scaled(48)) << 20
		var specs []workload.FlowSpec
		for i := 0; i < 16; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: i * 8, Dst: perDC + 3 + i*7, Size: size, InterDC: true,
			})
		}
		sim.Schedule(specs)
		sim.Run(2 * eventq.Second)
		_, inter := sim.FCTStats(false)
		timeouts := uint64(0)
		for _, c := range sim.Conns() {
			if c != nil {
				timeouts += c.Stats().Timeouts
			}
		}
		tbl.AddRow(stack.Name, inter.Mean, inter.P99, int(timeouts))
		r.FoldDigest(sim.Digest())
		if sim.Pending() > 0 {
			r.Note("%s: %d flows missed the horizon", stack.Name, sim.Pending())
		}
	}
	r.Note("near-source QCN reacts to border congestion within ~an intra-DC RTT instead of the WAN RTT")
	return r
}
