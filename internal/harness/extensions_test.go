package harness

import (
	"testing"

	"uno/internal/baselines"
	"uno/internal/core"
	"uno/internal/workload"
)

func TestRCVariantsGrid(t *testing.T) {
	variants := rcVariants()
	if len(variants) != 6 {
		t.Fatalf("variants = %d", len(variants))
	}
	sim := MustNewSim(60, smallTopo(), variants[0])
	spec := workload.FlowSpec{Src: 0, Dst: sim.Topo.Cfg.HostsPerDC(), Size: 1 << 20}
	wantEC := map[string]bool{
		"spray": false, "spray+EC": true,
		"plb": false, "plb+EC": true,
		"unolb": false, "unolb+EC": true,
	}
	for _, v := range variants {
		params, cc, lb := v.Policies(sim, spec, true)
		if _, ok := cc.(*core.UnoCC); !ok {
			t.Fatalf("%s cc = %T", v.Name, cc)
		}
		if params.EC.Enabled() != wantEC[v.Name] {
			t.Fatalf("%s EC = %v", v.Name, params.EC.Enabled())
		}
		if lb == nil {
			t.Fatalf("%s lb nil", v.Name)
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
