package harness

import (
	"fmt"

	"uno/internal/core"
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/stats"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// topoForRTTRatio returns the paper topology with the inter-DC link delay
// tuned so the inter/intra base-RTT ratio equals ratio (Fig 3 uses 128,
// Fig 11 sweeps 8-512).
func topoForRTTRatio(ratio float64) topo.Config {
	cfg := topo.DefaultConfig()
	const mtu = 4096
	serD := netsim.SerializationTime(mtu+transport.HeaderSize, cfg.LinkBps)
	serA := netsim.SerializationTime(netsim.AckSize, cfg.LinkBps)
	intra := 12*cfg.IntraLinkDelay + 6*(serD+serA)
	target := eventq.Time(ratio * float64(intra))
	// InterRTT = 16·intraDelay + 2·interDelay + 9·(serD+serA).
	inter := (target - 16*cfg.IntraLinkDelay - 9*(serD+serA)) / 2
	if inter < 0 {
		inter = 0
	}
	cfg.InterLinkDelay = inter
	return cfg
}

// withLB overrides a stack's path selector (and relaxes the dup-ACK
// threshold for reordering selectors), used where the paper pins one LB
// for all schemes (Fig 8 uses packet spraying everywhere).
func withLB(s Stack, mkLB func() transport.PathSelector) Stack {
	inner := s.Policies
	s.Name += "(spray)"
	s.Policies = func(sim *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
		params, cc, _ := inner(sim, spec, interDC)
		params.DupAckThresh = core.MultipathDupAckThresh
		return params, cc, mkLB()
	}
	return s
}

// Fig1 reproduces Figure 1 (B): the fraction of a message's completion
// time attributable to propagation delay, across message sizes and RTTs,
// from the closed-form model completion = RTT + bytes×8/bandwidth.
func Fig1(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig1", Title: "Propagation share of message completion time (100 Gb/s)"}
	rtts := []eventq.Time{
		10 * eventq.Microsecond, 40 * eventq.Microsecond,
		eventq.Millisecond, 20 * eventq.Millisecond, 60 * eventq.Millisecond,
	}
	sizes := []int64{
		4 << 10, 64 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20, 1 << 30, 4 << 30,
	}
	header := []string{"msg size"}
	for _, rtt := range rtts {
		header = append(header, "RTT "+rtt.String())
	}
	tbl := r.NewTable("fraction of completion time that is propagation delay", header...)
	const bw = 100e9
	for _, size := range sizes {
		row := []any{fmtBytes(size)}
		for _, rtt := range rtts {
			tx := float64(size) * 8 / bw
			frac := rtt.Seconds() / (rtt.Seconds() + tx)
			row = append(row, fmt.Sprintf("%.3f", frac))
		}
		tbl.AddRow(row...)
	}
	r.Note("messages are latency-bound (fraction > 0.5) up to ~%s at 20ms RTT, matching Fig 1", fmtBytes(256<<20))
	return r
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGiB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Fig3 reproduces Figure 3: four intra-DC and four inter-DC flows incast
// into one destination (inter RTT = 128× intra); Gemini converges to
// fairness too slowly, MPRDMA+BBR never converges, Uno converges fast.
func Fig3(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig3", Title: "Fairness convergence, mixed 4+4 incast (inter RTT = 128× intra)"}
	tbl := r.NewTable("averaged over 3 seeds",
		"scheme", "time-to-fairness(J>0.75)", "mean Jain (mid)", "inter:intra per-flow rate", "mean FCT", "p99 FCT")

	flowSize := int64(cfg.scaled(128)) << 20
	horizon := eventq.Time(cfg.scaled(200)) * eventq.Millisecond
	bin := horizon / 60
	seeds := []uint64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2}

	// One job per (stack, seed): each builds its own Sim and sampler; the
	// averaging below walks the outputs in job order.
	stacks := BaselineStacks()
	type fairnessOut struct {
		ttf                    eventq.Time
		jain, ratio, mean, p99 float64
		missed                 int
		digest                 uint64
	}
	outs := RunParallel(cfg.Parallel, len(stacks)*len(seeds), func(job int) fairnessOut {
		stack, seed := stacks[job/len(seeds)], seeds[job%len(seeds)]
		topoCfg := topoForRTTRatio(128)
		sim := cfg.newSim(seed, topoCfg, stack)

		// Destination: host 0 of DC0. Intra sources from distinct
		// pods of DC0, inter sources from DC1.
		perDC := topoCfg.HostsPerDC()
		hpp := perDC / topoCfg.K // hosts per pod
		var specs []workload.FlowSpec
		for i := 0; i < 4; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: (i+1)*hpp + i, Dst: 0, Size: flowSize, InterDC: false,
			})
		}
		for i := 0; i < 4; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: perDC + i*hpp + i, Dst: 0, Size: flowSize, InterDC: true,
			})
		}
		conns := sim.Schedule(specs)
		rs := sim.SampleRates(conns, bin, horizon)
		classes := make([]bool, len(specs))
		for i, sp := range specs {
			classes[i] = sp.InterDC
		}
		rs.SetClasses(classes)
		sim.Run(horizon)

		all := sim.AllFCTStats(false)
		return fairnessOut{
			ttf:    rs.TimeToFairness(0.75, 6),
			jain:   rs.ContestedJain(),
			ratio:  rs.ClassRateRatio(),
			mean:   all.Mean,
			p99:    all.P99,
			missed: sim.Pending(),
			digest: sim.Digest(),
		}
	})

	for si, stack := range stacks {
		var ttfAcc, jainAcc, ratioAcc, meanAcc, p99Acc float64
		ttfHit := 0
		missed := 0
		for sd := range seeds {
			out := outs[si*len(seeds)+sd]
			if out.ttf >= 0 {
				ttfAcc += out.ttf.Seconds() * 1e3
				ttfHit++
			}
			jainAcc += out.jain
			ratioAcc += out.ratio
			meanAcc += out.mean
			p99Acc += out.p99
			missed += out.missed
			r.FoldDigest(out.digest)
		}
		n := float64(len(seeds))
		ttfCell := "-"
		if ttfHit > 0 {
			ttfCell = fmt.Sprintf("%.1fms (%d/%d seeds)", ttfAcc/float64(ttfHit), ttfHit, len(seeds))
		}
		tbl.AddRow(stack.Name, ttfCell, jainAcc/n,
			fmt.Sprintf("%.2f:1", ratioAcc/n), meanAcc/n, p99Acc/n)
		if missed > 0 {
			r.Note("%s: %d flow-runs missed the horizon (FCT columns cover completed flows)",
				stack.Name, missed)
		}
	}
	r.Note("FCTs in µs; flows of %s; fairness measured while both classes are still competing", fmtBytes(flowSize))
	return r
}

// Fig4 reproduces Figure 4: an 8:1 inter-DC incast sharing an edge port
// with small Google-RPC messages, with and without phantom queues. Phantom
// queues keep the physical queue near zero and cut RPC tail latency.
func Fig4(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "fig4", Title: "Phantom queues: physical occupancy and RPC latency"}
	tbl := r.NewTable("", "variant", "mean queue (KiB)", "max queue (KiB)",
		"RPC mean FCT (µs)", "RPC p99 FCT (µs)")

	horizon := eventq.Time(cfg.scaled(44)) * eventq.Millisecond
	measureFrom := horizon / 2 // skip the incast ramp transient
	for _, phantom := range []bool{false, true} {
		stack := StackUno()
		name := "UnoCC w/o phantom"
		if phantom {
			name = "UnoCC + phantom"
		}
		stack.Phantom = phantom
		sim := cfg.newSim(cfg.Seed, topo.DefaultConfig(), stack)
		perDC := sim.Topo.Cfg.HostsPerDC()

		// Receiver: host 0 of DC1. Long-lived incast from 8 DC0 hosts.
		recv := perDC
		hpp := perDC / sim.Topo.Cfg.K
		var specs []workload.FlowSpec
		for i := 0; i < 8; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: i * hpp, Dst: recv, Size: 1 << 30, InterDC: true,
			})
		}
		sim.Schedule(specs)

		// RPC victims: Poisson small messages from DC1 hosts to the
		// receiver, injected once the incast has reached steady state.
		wr := rng.New(cfg.Seed + 1)
		// Load is relative to the single receiver link (divide the
		// per-source rate by the source count), so the RPC mix offers
		// ~5% of the bottleneck, not 5% of 32 hosts' aggregate.
		rpcs, err := workload.Poisson(workload.PoissonConfig{
			CDF:      workload.GoogleRPC,
			Load:     0.05,
			LinkBps:  sim.Topo.Cfg.LinkBps / 32,
			Sources:  workload.HostRange{Lo: perDC + 1, Hi: perDC + 33},
			Dests:    workload.HostRange{Lo: recv, Hi: recv + 1},
			Duration: horizon - measureFrom,
			MaxFlows: cfg.scaled(400),
		}, wr)
		if err != nil {
			panic(err)
		}
		for i := range rpcs {
			rpcs[i].Start += measureFrom
		}
		sim.Schedule(rpcs)

		// Sample the receiver's edge downlink queue. The timer lives on the
		// receiver's own network — the shard owning the port, so the poll
		// never crosses a shard boundary.
		coord := sim.Topo.Coord(sim.Topo.Hosts[recv].ID())
		edge := sim.Topo.DCs[coord.DC].Edges[coord.Pod][coord.Edge]
		port := edge.Port(coord.Idx)
		rnet := sim.Topo.Hosts[recv].Network()
		var q stats.Sample
		var sample *eventq.Timer
		sample = rnet.Sched.NewTimer(func() {
			q.Add(float64(port.QueuedBytes()))
			if rnet.Now() < horizon {
				sample.ResetAfter(20 * eventq.Microsecond)
			}
		})
		sample.Reset(measureFrom)

		sim.RunUntil(horizon)

		var rpcFCT stats.Sample
		for _, res := range sim.Results() {
			if res.Spec.Size <= 131072 && !res.Spec.InterDC {
				rpcFCT.Add(res.FCT.Seconds() * 1e6)
			}
		}
		tbl.AddRow(name, q.Mean()/1024, q.Max()/1024, rpcFCT.Mean(), rpcFCT.P99())
		r.FoldDigest(sim.Digest())
	}
	r.Note("long flows: 8 × 1GiB inter-DC incast; RPC victims drawn from the Google RPC CDF")
	return r
}

// Table1 reproduces Table 1: per-packet loss statistics of the two
// Gilbert-Elliott processes calibrated to the paper's Azure measurements,
// grouped into 10-packet blocks.
func Table1(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "table1", Title: "Loss statistics in 10-packet blocks (calibrated GE model)"}
	tbl := r.NewTable("", "losses within a block",
		"setup1 drops", "setup1 rate", "setup2 drops", "setup2 rate")

	packets := cfg.scaled(20_000_000)
	blocks := packets / 10
	type counts struct{ one, two, three int }
	run := func(setup failure.Table1Setup, seed uint64) (counts, float64) {
		ge := failure.NewTable1Loss(setup, rng.New(seed))
		var c counts
		losses := 0
		for b := 0; b < blocks; b++ {
			n := 0
			for k := 0; k < 10; k++ {
				if ge.Drop(0, nil) {
					n++
				}
			}
			losses += n
			switch {
			case n >= 3:
				c.three++
				fallthrough
			case n >= 2:
				c.two++
				fallthrough
			case n >= 1:
				c.one++
			}
		}
		return c, float64(losses) / float64(blocks*10)
	}
	c1, rate1 := run(failure.Setup1, cfg.Seed)
	c2, rate2 := run(failure.Setup2, cfg.Seed+1)
	row := func(label string, a, b int) {
		tbl.AddRow(label, a, fmt.Sprintf("%.1e", float64(a)/float64(blocks)),
			b, fmt.Sprintf("%.1e", float64(b)/float64(blocks)))
	}
	row("1+", c1.one, c2.one)
	row("2+", c1.two, c2.two)
	row("3+", c1.three, c2.three)
	r.Note("observed per-packet loss rates: setup1 %.2e (paper 5.01e-5), setup2 %.2e (paper 1.22e-5)", rate1, rate2)
	r.Note("%d packets per setup (paper used 320M)", blocks*10)
	return r
}
