// AI training: the Figure 13 (C) scenario as a library program. A
// data-parallel job with one model replica per datacenter synchronizes
// gradients across the border links every iteration, while the links
// suffer correlated random loss (the paper's Table 1 model) and one link
// flaps. The program reports each iteration's Allreduce time against the
// ideal and compares Uno with and without erasure coding.
package main

import (
	"fmt"

	"uno"
)

func main() {
	const iterations = 6

	for _, stack := range []uno.Stack{uno.UnoStack(), uno.UnoNoECStack()} {
		sim := uno.NewSim(23, uno.DefaultTopology(), stack)

		// Correlated loss on every border link (100× the measured rate so
		// the short demo sees events) plus one flapping link.
		r := uno.NewRand(99)
		for _, il := range sim.Topo.InterLinkFor(0, 1) {
			ge := uno.NewTable1Loss(uno.LossSetup1, r.Split())
			ge.PGoodToBad *= 100
			il.Link.SetLoss(ge)
		}
		flap := &uno.Flapper{
			Link:    sim.Topo.InterLinkFor(0, 1)[0].Link,
			DownFor: 2 * uno.Millisecond,
			UpFor:   6 * uno.Millisecond,
		}
		flap.Start(sim.Net.Sched, uno.Millisecond, uno.Second)

		iters, err := uno.AllreduceIterations(uno.AllreduceConfig{
			Workers:    8,
			DC0Hosts:   uno.HostRange{Lo: 0, Hi: 128},
			DC1Hosts:   uno.HostRange{Lo: 128, Hi: 256},
			MinBytes:   16 << 20,
			MaxBytes:   48 << 20,
			Iterations: iterations,
		}, uno.NewRand(5))
		if err != nil {
			panic(err)
		}

		cut := sim.Topo.Cfg.LinkBps * int64(sim.Topo.Cfg.BorderLinks)
		interRTT := sim.Topo.InterRTT(sim.MTU)
		fmt.Printf("=== %s: per-iteration Allreduce time vs ideal\n", stack.Name)
		for _, it := range iters {
			start := sim.Now()
			for i := range it.Flows {
				it.Flows[i].Start = start
			}
			conns := sim.Schedule(it.Flows)
			deadline := start + uno.Second
			for sim.Now() < deadline {
				sim.RunUntil(sim.Now() + uno.Millisecond)
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
			ideal := uno.IdealIterationTime(it, cut, interRTT)
			fmt.Printf("  iter %d: %4d MiB gradients  comm %-10v ideal %-10v ratio ×%.2f\n",
				it.Index, it.Bytes>>20, elapsed, ideal, float64(elapsed)/float64(ideal))
		}
		fmt.Println()
	}
}
