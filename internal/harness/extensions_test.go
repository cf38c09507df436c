package harness

import (
	"testing"

	"uno/internal/baselines"
	"uno/internal/core"
	"uno/internal/workload"
)

// TestRCVariantsGrid: every Fig 13 variant runs UnoCC, and an inter-DC
// flow's Params carry the multipath dup-ACK threshold (24) under every
// selector and RS(8,2) exactly for the +EC variants.
func TestRCVariantsGrid(t *testing.T) {
	want := []struct {
		name string
		ec   bool
	}{
		{"spray", false}, {"spray+EC", true},
		{"plb", false}, {"plb+EC", true},
		{"unolb", false}, {"unolb+EC", true},
	}
	variants := rcVariants()
	if len(variants) != len(want) {
		t.Fatalf("variants = %d, want %d", len(variants), len(want))
	}
	sim := MustNewSim(60, smallTopo(), variants[0])
	spec := workload.FlowSpec{Src: 0, Dst: sim.Topo.Cfg.HostsPerDC(), Size: 1 << 20}
	for i, v := range variants {
		if v.Name != want[i].name {
			t.Errorf("variant %d is %q, want %q", i, v.Name, want[i].name)
		}
		params, cc, lb := v.Policies(sim, spec, true)
		if _, ok := cc.(*core.UnoCC); !ok {
			t.Errorf("%s cc = %T", v.Name, cc)
		}
		if lb == nil {
			t.Errorf("%s lb nil", v.Name)
		}
		if params.DupAckThresh != 24 {
			t.Errorf("%s DupAckThresh = %d, want 24", v.Name, params.DupAckThresh)
		}
		rs82 := params.EC.Data == 8 && params.EC.Parity == 2
		if rs82 != want[i].ec || params.EC.Enabled() != want[i].ec {
			t.Errorf("%s EC = %+v, want RS(8,2) %v", v.Name, params.EC, want[i].ec)
		}
	}
}

func TestAnnulusStackWiresQCN(t *testing.T) {
	st := StackMPRDMABBRAnnulus()
	if !st.QCN {
		t.Fatal("annulus stack must enable QCN")
	}
	sim := MustNewSim(62, smallTopo(), st)
	edge := sim.Topo.DCs[0].Edges[0][0]
	if !edge.Port(0).Config().QCN {
		t.Fatal("fabric ports lack QCN")
	}
	spec := workload.FlowSpec{Src: 0, Dst: sim.Topo.Cfg.HostsPerDC(), Size: 1 << 20}
	_, cc, _ := st.Policies(sim, spec, true)
	if _, ok := cc.(*baselines.Annulus); !ok {
		t.Fatalf("inter-DC cc = %T, want Annulus wrapper", cc)
	}
	_, cc, _ = st.Policies(sim, spec, false)
	if _, ok := cc.(*baselines.MPRDMA); !ok {
		t.Fatalf("intra-DC cc = %T", cc)
	}
}
