package uno_test

import (
	"bytes"
	"strings"
	"testing"

	"uno"
)

func TestFacadeQuickstartPath(t *testing.T) {
	sim := uno.NewSim(42, uno.DefaultTopology(), uno.UnoStack())
	sim.Schedule([]uno.FlowSpec{
		{Src: 0, Dst: 37, Size: 1 << 20},
		{Src: 3, Dst: 200, Size: 1 << 20},
	})
	sim.Run(100 * uno.Millisecond)
	res := sim.Results()
	if len(res) != 2 {
		t.Fatalf("completed %d/2 flows", len(res))
	}
	for _, r := range res {
		if r.FCT <= 0 {
			t.Fatalf("bad FCT %v", r.FCT)
		}
		if r.Slowdown() < 0.99 || r.Slowdown() > 30 {
			t.Fatalf("implausible slowdown %v", r.Slowdown())
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() []uno.FlowResult {
		sim := uno.NewSim(7, uno.DefaultTopology(), uno.UnoStack())
		specs, err := uno.PoissonFlows(uno.PoissonConfig{
			CDF:      uno.GoogleRPCCDF,
			Load:     0.1,
			LinkBps:  100e9 / 16,
			Sources:  uno.HostRange{Lo: 0, Hi: 32},
			Dests:    uno.HostRange{Lo: 32, Hi: 64},
			Duration: uno.Millisecond,
			MaxFlows: 50,
		}, uno.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		sim.Schedule(specs)
		sim.Run(50 * uno.Millisecond)
		return sim.Results()
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FCT != b[i].FCT || a[i].Spec != b[i].Spec {
			t.Fatalf("runs diverge at flow %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFacadeStacksDiffer(t *testing.T) {
	// The same workload under Uno vs MPRDMA+BBR must produce different
	// (but both complete) outcomes: the stacks are actually plugged in.
	fcts := map[string]uno.Time{}
	for _, mk := range []func() uno.Stack{uno.UnoStack, uno.MPRDMABBRStack, uno.GeminiStack} {
		stack := mk()
		sim := uno.NewSim(11, uno.DefaultTopology(), stack)
		sim.Schedule([]uno.FlowSpec{{Src: 0, Dst: 130, Size: 8 << 20}})
		sim.Run(uno.Second)
		if len(sim.Results()) != 1 {
			t.Fatalf("%s: flow did not complete", stack.Name)
		}
		fcts[stack.Name] = sim.Results()[0].FCT
	}
	if fcts["uno"] == fcts["mprdma+bbr"] && fcts["uno"] == fcts["gemini"] {
		t.Fatalf("all stacks produced identical FCTs: %v", fcts)
	}
}

func TestFacadeCodec(t *testing.T) {
	codec, err := uno.NewCodec(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte(strings.Repeat("uno reproduces SC'25 ", 40))
	shards := codec.Split(msg)
	if err := codec.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[1], shards[9] = nil, nil
	if err := codec.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	got, err := codec.Join(shards, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("codec round trip failed")
	}
}

func TestFacadeDistributions(t *testing.T) {
	r := uno.NewRand(1)
	for _, c := range []*uno.CDF{uno.WebSearchCDF, uno.AlibabaWANCDF, uno.GoogleRPCCDF} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if s := c.Sample(r); s <= 0 {
			t.Fatalf("%s sampled %d", c.Name, s)
		}
	}
	// Inter-DC traffic is much heavier-tailed than RPCs.
	if uno.AlibabaWANCDF.Mean() < 100*uno.GoogleRPCCDF.Mean() {
		t.Fatal("distribution means implausible")
	}
}

func TestFacadeLossModels(t *testing.T) {
	ge := uno.NewTable1Loss(uno.LossSetup1, uno.NewRand(5))
	if rate := ge.StationaryLossRate(); rate < 4e-5 || rate > 6e-5 {
		t.Fatalf("setup1 loss rate %v", rate)
	}
	ge2 := uno.NewTable1Loss(uno.LossSetup2, uno.NewRand(5))
	if ge2.StationaryLossRate() >= ge.StationaryLossRate() {
		t.Fatal("setup2 should lose less than setup1")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	exps := uno.Experiments()
	if len(exps) != 15 { // 12 paper figures/tables + 2 extensions + tournament
		t.Fatalf("registry size %d", len(exps))
	}
	report, ok := uno.RunExperiment("fig1", uno.ExperimentConfig{})
	if !ok || report == nil {
		t.Fatal("fig1 did not run")
	}
	if !strings.Contains(report.String(), "fig1") {
		t.Fatal("report missing id")
	}
	if _, ok := uno.RunExperiment("bogus", uno.ExperimentConfig{}); ok {
		t.Fatal("bogus experiment ran")
	}
}

func TestFacadeCustomStackAblation(t *testing.T) {
	stack := uno.CustomUnoStack("uno-custom", func(s *uno.SystemConfig) {
		s.DisableEC = true
		s.DisableQA = true
	})
	sim := uno.NewSim(13, uno.DefaultTopology(), stack)
	sim.Schedule([]uno.FlowSpec{{Src: 0, Dst: 140, Size: 2 << 20}})
	sim.Run(uno.Second)
	if len(sim.Results()) != 1 {
		t.Fatal("custom-stack flow did not complete")
	}
}

func TestFacadeFailureInjection(t *testing.T) {
	sim := uno.NewSim(17, uno.DefaultTopology(), uno.UnoStack())
	sim.Topo.FailBorderLink(0, 1, 0)
	sim.Schedule([]uno.FlowSpec{{Src: 0, Dst: 128, Size: 4 << 20}})
	sim.Run(2 * uno.Second)
	if len(sim.Results()) != 1 {
		t.Fatal("flow did not survive border-link failure")
	}
}
