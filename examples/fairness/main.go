// Fairness: the Figure 3 scenario as a library program. Four intra-DC and
// four inter-DC flows (RTT gap 128×) incast into one host; the program
// prints each scheme's per-flow rate trajectory so the convergence
// behaviour — Uno fast, Gemini slow, MPRDMA+BBR never — is visible as text.
package main

import (
	"fmt"

	"uno"
)

func main() {
	const flowSize = 96 << 20
	horizon := 120 * uno.Millisecond

	for _, stack := range []uno.Stack{uno.UnoStack(), uno.GeminiStack(), uno.MPRDMABBRStack()} {
		sim := uno.NewSim(7, uno.DefaultTopology(), stack)

		// Destination: host 0 (DC0). Four intra senders from distinct
		// pods, four inter senders from DC1.
		var specs []uno.FlowSpec
		for i := 0; i < 4; i++ {
			specs = append(specs, uno.FlowSpec{Src: 16 * (i + 1), Dst: 0, Size: flowSize})
		}
		for i := 0; i < 4; i++ {
			specs = append(specs, uno.FlowSpec{Src: 128 + 16*i, Dst: 0, Size: flowSize})
		}
		conns := sim.Schedule(specs)
		rs := sim.SampleRates(specs, conns, horizon/24, horizon)
		sim.Run(horizon)

		fmt.Printf("=== %s: per-flow goodput (GB/s), 4 intra then 4 inter\n", stack.Name)
		for b := 0; b < 24; b += 2 {
			fmt.Printf("  t=%-8v", rs.Series[0].BinTime(b))
			for _, r := range rs.RatesAt(b) {
				fmt.Printf(" %5.2f", r/1e9)
			}
			fmt.Println()
		}
		ttf := rs.TimeToFairness(0.85, 3)
		if ttf >= 0 {
			fmt.Printf("  → fairness (Jain ≥ 0.85) reached at %v\n\n", ttf)
		} else {
			fmt.Printf("  → fairness never reached within %v\n\n", horizon)
		}
	}
}
