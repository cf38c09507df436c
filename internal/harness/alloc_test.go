package harness

import (
	"runtime"
	"testing"

	"uno/internal/eventq"
	"uno/internal/workload"
)

// TestSamplerTickAllocFree extends the PR-2 allocation budget to the
// measurement plane: once a RateSampler's series are built, each periodic
// tick (poll every connection's byte counters, fold them into fixed-size
// TimeSeries bins, rearm the timer) must allocate nothing. The sim is run
// to quiescence first so the measured cycles contain only sampler work.
func TestSamplerTickAllocFree(t *testing.T) {
	sim := MustNewSim(7, smallTopo(), StackUno())
	specs := []workload.FlowSpec{
		{Src: 4, Dst: 0, Size: 1 << 20},
		{Src: 8, Dst: 0, Size: 1 << 20},
	}
	conns := sim.Schedule(specs)
	interval := 250 * eventq.Microsecond
	stop := 40 * eventq.Second // far past anything this test runs
	rs := sim.SampleRates(conns, interval, stop)

	// Let the flows finish and several ticks fire (warming the timer and
	// any lazily grown state), then measure pure tick cycles.
	sim.Run(20 * eventq.Millisecond)
	if sim.Pending() != 0 {
		t.Fatalf("%d flows still pending before measurement", sim.Pending())
	}
	sched := sim.Net.Sched
	allocs := testing.AllocsPerRun(200, func() {
		sched.RunUntil(sched.Now() + interval)
	})
	if allocs != 0 {
		t.Fatalf("sampler tick allocates %v objects per interval, want 0", allocs)
	}
	for _, series := range rs.Series {
		if series.Bins() == 0 {
			t.Fatal("sampler recorded no bins")
		}
	}
}

// TestBackToBackFlowsAllocation: 20,000 one-packet Uno flows on one Sim,
// each starting after the one before has finished. What a finished flow
// keeps is its handle, its harness record and its result; its sender,
// receiver, controller and balancer serve the next flow. Before flows were
// recycled this cost 1,453 B per flow (every flow kept all of its state to
// the end of the run); the budget is half of that, and the measurement is
// about 480 B (550 under the race detector).
func TestBackToBackFlowsAllocation(t *testing.T) {
	const flows, budget = 20000, 1453 / 2
	const gap = 20 * eventq.Microsecond // several one-packet FCTs on this fabric
	sim := MustNewSim(9, smallTopo(), StackUno())
	specs := make([]workload.FlowSpec, flows)
	for i := range specs {
		specs[i] = workload.FlowSpec{Src: 0, Dst: 1, Size: 1024, Start: eventq.Time(i) * gap}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sim.Schedule(specs)
	sim.Run(eventq.Time(flows+1) * gap)
	runtime.ReadMemStats(&m1)
	if sim.Pending() != 0 {
		t.Fatalf("%d flows did not complete", sim.Pending())
	}
	perFlow := float64(m1.TotalAlloc-m0.TotalAlloc) / flows
	t.Logf("%.0f B per flow", perFlow)
	if perFlow > budget {
		t.Errorf("a back-to-back one-packet flow allocates %.0f B, budget %d", perFlow, budget)
	}
}
