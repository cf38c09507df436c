package harness

import (
	"uno/internal/baselines"
	"uno/internal/core"
	"uno/internal/lb"
	"uno/internal/transport"
	"uno/internal/workload"
)

// Stack is a named protocol configuration: per flow, it produces the
// transport parameters, the congestion controller, and the load balancer.
type Stack struct {
	Name string
	// Phantom enables phantom queues on every switch port (Uno stacks).
	Phantom bool
	// QCN enables near-source congestion notifications in the fabric
	// (required by Annulus-wrapped stacks).
	QCN bool
	// Policies builds per-flow policy objects. It runs when the flow opens:
	// on the source shard's goroutine, where per-DC shards run it for two
	// flows at once, or on the coordinator between windows for a flow
	// between shards. State it keeps across calls is read-only or per
	// source shard, as the Uno stacks' policy pools are.
	Policies func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector)
}

// unoSystem derives the core.System for a flow from host src on a Sim's
// topology, drawing its policies from the pool of src's shard. It is built
// in a field of that shard's state: mod is an arbitrary function, so a
// local handed to it would be heap-allocated once per flow, and a flow
// opens on its source shard's goroutine, concurrently with the other
// shard's flows.
func unoSystem(s *Sim, src int, mod func(*core.System)) core.System {
	st := &s.shards[s.Topo.Hosts[src].Network().Shard()]
	sys := &st.unoSys
	*sys = core.System{
		LinkBps:  s.Topo.Cfg.LinkBps,
		IntraRTT: s.Topo.IntraRTT(MTU),
		Pool:     &st.policies,
	}
	if mod != nil {
		mod(sys)
	}
	return *sys
}

// StackUno is the full system: UnoCC + UnoRC (EC on inter-DC flows +
// UnoLB) with phantom queues in the fabric.
func StackUno() Stack {
	return unoVariant("uno", nil)
}

// StackUnoECMP is UnoCC with single-path ECMP and no EC — the "Uno+ECMP"
// variant of Figs 9, 10, 12.
func StackUnoECMP() Stack {
	return unoVariant("uno+ecmp", func(sys *core.System) {
		sys.UseECMP = true
		sys.DisableEC = true
	})
}

// StackUnoNoEC is UnoCC + UnoLB without erasure coding (Fig 13's
// "Uno w/o EC").
func StackUnoNoEC() Stack {
	return unoVariant("uno-noec", func(sys *core.System) { sys.DisableEC = true })
}

// StackUnoMod builds a customized Uno stack (ablations).
func StackUnoMod(name string, mod func(*core.System)) Stack {
	return unoVariant(name, mod)
}

func unoVariant(name string, mod func(*core.System)) Stack {
	return Stack{
		Name:    name,
		Phantom: true,
		Policies: func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
			sys := unoSystem(s, spec.Src, mod)
			return sys.Policies(interDC, s.BaseRTT(spec.Src, spec.Dst))
		},
	}
}

// StackUnoCCWithLB runs UnoCC (phantom fabric) with an arbitrary
// load-balancer constructor and optional EC — the Fig 13 comparison grid
// (spraying / PLB / UnoLB, each ± EC). Every selector gets the multipath
// System's reordering-tolerant dup-ACK threshold (core.MultipathDupAckThresh).
func StackUnoCCWithLB(name string, ec bool, mkLB func() transport.PathSelector) Stack {
	return Stack{
		Name:    name,
		Phantom: true,
		Policies: func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
			sys := unoSystem(s, spec.Src, func(sys *core.System) { sys.DisableEC = !ec })
			params, cc, _ := sys.Policies(interDC, s.BaseRTT(spec.Src, spec.Dst))
			return params, cc, mkLB()
		},
	}
}

// StackGemini is the Gemini baseline: one controller for both traffic
// classes, ECN for intra-DC and delay for inter-DC congestion, reacting
// per flow RTT; ECMP routing, no phantom queues, no EC.
func StackGemini() Stack {
	return Stack{
		Name: "gemini",
		Policies: func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
			baseRTT := s.BaseRTT(spec.Src, spec.Dst)
			intraRTT := s.Topo.IntraRTT(MTU)
			bps := float64(s.Topo.Cfg.LinkBps)
			cc := baselines.NewGemini(baselines.GeminiConfig{
				BDP:      bps / 8 * baseRTT.Seconds(),
				IntraBDP: bps / 8 * intraRTT.Seconds(),
				BaseRTT:  baseRTT,
				InterDC:  interDC,
			})
			return transport.Params{BaseRTT: baseRTT}, cc, &transport.FixedEntropy{}
		},
	}
}

// StackMPRDMABBR is the split baseline: MPRDMA inside the datacenter and
// BBR across; ECMP routing, no phantom queues, no EC.
func StackMPRDMABBR() Stack {
	return Stack{
		Name: "mprdma+bbr",
		Policies: func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
			baseRTT := s.BaseRTT(spec.Src, spec.Dst)
			var cc transport.CongestionControl
			if interDC {
				cc = baselines.NewBBR()
			} else {
				cc = baselines.NewMPRDMA()
			}
			return transport.Params{BaseRTT: baseRTT}, cc, &transport.FixedEntropy{}
		},
	}
}

// StackMPRDMABBRAnnulus is MPRDMA+BBR with the Annulus near-source loop
// wrapped around the inter-DC (BBR) flows — the add-on the paper's
// footnote 4 defers to future work. Requires QCN in the fabric, which the
// stack enables.
func StackMPRDMABBRAnnulus() Stack {
	return Stack{
		Name: "mprdma+bbr+annulus",
		QCN:  true,
		Policies: func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
			baseRTT := s.BaseRTT(spec.Src, spec.Dst)
			var cc transport.CongestionControl
			if interDC {
				cc = baselines.NewAnnulus(baselines.NewBBR())
			} else {
				cc = baselines.NewMPRDMA()
			}
			return transport.Params{BaseRTT: baseRTT}, cc, &transport.FixedEntropy{}
		},
	}
}

// NewRPS returns a packet-spraying selector (for StackUnoCCWithLB).
func NewRPS() transport.PathSelector { return &lb.RPS{} }

// NewPLB returns a PLB selector (for StackUnoCCWithLB).
func NewPLB() transport.PathSelector { return &lb.PLB{} }

// NewUnoLB returns a UnoLB selector (for StackUnoCCWithLB).
func NewUnoLB() transport.PathSelector { return &core.UnoLB{} }

// BaselineStacks returns the paper's §5.2.1/§5.2.2 comparison set.
func BaselineStacks() []Stack {
	return []Stack{StackUno(), StackGemini(), StackMPRDMABBR()}
}
