package harness

import (
	"fmt"
	"os"
	"testing"

	"uno/internal/eventq"
	"uno/internal/workload"
)

// TestDebugFig3Rates dumps per-flow rate curves (development aid).
func TestDebugFig3Rates(t *testing.T) {
	if os.Getenv("UNO_DEBUG") == "" {
		t.Skip("debug trace; set UNO_DEBUG=1 to run")
	}
	for _, stack := range BaselineStacks() {
		topoCfg := topoForRTTRatio(128)
		sim := MustNewSim(42, topoCfg, stack)
		perDC := topoCfg.HostsPerDC()
		hpp := perDC / topoCfg.K
		var specs []workload.FlowSpec
		for i := 0; i < 4; i++ {
			specs = append(specs, workload.FlowSpec{Src: (i+1)*hpp + i, Dst: 0, Size: 64 << 20})
		}
		for i := 0; i < 4; i++ {
			specs = append(specs, workload.FlowSpec{Src: perDC + i*hpp + i, Dst: 0, Size: 64 << 20, InterDC: true})
		}
		conns := sim.Schedule(specs)
		horizon := 60 * eventq.Millisecond
		rs := sim.SampleRates(specs, conns, horizon/48, horizon)
		sim.Run(horizon)
		fmt.Printf("=== %s (doneAt bins: %v)\n", stack.Name, rs.doneAt)
		for b := 0; b < 48; b += 2 {
			rates := rs.RatesAt(b)
			fmt.Printf(" bin%02d(t=%v):", b, rs.Series[0].BinTime(b))
			for _, r := range rates {
				fmt.Printf(" %5.2f", r/1e9)
			}
			fmt.Println(" GB/s")
		}
	}
}
