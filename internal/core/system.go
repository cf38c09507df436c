package core

import (
	"uno/internal/eventq"
	"uno/internal/transport"
)

// System bundles the knobs needed to instantiate the full Uno stack
// (UnoCC + UnoRC) for every flow of an experiment, mirroring the paper's
// Table 2 defaults.
type System struct {
	// MTU in payload bytes (default 4096).
	MTU int
	// LinkBps is the line rate used for BDP computations.
	LinkBps int64
	// IntraRTT is the unloaded intra-DC RTT: it sets the unified epoch
	// period and the MD constant K (§4.1.1).
	IntraRTT eventq.Time

	// ECData/ECParity configure UnoRC's erasure coding for inter-DC flows
	// (defaults 8 and 2). DisableEC turns coding off (the "Uno w/o EC"
	// variant of Fig 13).
	ECData, ECParity int
	DisableEC        bool

	// Subflows is UnoLB's N (default 8 to match the block size).
	// UseECMP replaces UnoLB with single-path ECMP (the "Uno+ECMP"
	// variant of Figs 9, 10, 12).
	Subflows int
	UseECMP  bool

	// Ablation switches forwarded to UnoCC.
	DisableQA           bool
	DisablePhantomAware bool
	// PerFlowEpochs reverts the unified epoch granularity to each flow's
	// own RTT (ablation isolating the paper's central design decision).
	PerFlowEpochs bool

	// Configs, when set, interns the controllers' configurations: a harness
	// that builds a System per flow points every one at its simulation's
	// pool. Nil gives each controller a private copy.
	Configs *ConfigPool
}

// withDefaults fills unset fields.
func (s System) withDefaults() System {
	if s.MTU <= 0 {
		s.MTU = 4096
	}
	if s.ECData <= 0 {
		s.ECData = 8
	}
	if s.ECParity <= 0 {
		s.ECParity = 2
	}
	if s.Subflows <= 0 {
		s.Subflows = 8
	}
	return s
}

// wireBDP returns the bandwidth-delay product in wire bytes for a base RTT.
func (s System) wireBDP(rtt eventq.Time) float64 {
	return float64(s.LinkBps) / 8 * rtt.Seconds()
}

// Policies builds the transport parameters, congestion controller, and
// path selector for one flow. baseRTT is the flow's unloaded RTT (use
// topo.BaseRTT or the Table 2 constants).
func (s System) Policies(interDC bool, baseRTT eventq.Time) (transport.Params, transport.CongestionControl, transport.PathSelector) {
	s = s.withDefaults()
	params := transport.Params{
		MTU:     s.MTU,
		BaseRTT: baseRTT,
		// Reordering is expected under UnoLB's round-robin spraying.
		DupAckThresh: 3,
	}
	if !s.UseECMP {
		params.DupAckThresh = 3 * s.Subflows
	}
	if interDC && !s.DisableEC {
		params.EC = transport.ECConfig{
			Data:         s.ECData,
			Parity:       s.ECParity,
			BlockTimeout: baseRTT,
		}
	}

	epoch := s.IntraRTT
	if s.PerFlowEpochs {
		epoch = baseRTT
	}
	cfg := CCConfig{
		BDP:                 s.wireBDP(baseRTT),
		IntraBDP:            s.wireBDP(s.IntraRTT),
		BaseRTT:             baseRTT,
		EpochPeriod:         epoch,
		DisableQA:           s.DisableQA,
		DisablePhantomAware: s.DisablePhantomAware,
	}
	var cc *UnoCC
	if s.Configs != nil {
		cc = s.Configs.NewUnoCC(cfg)
	} else {
		cc = NewUnoCC(cfg)
	}

	var lb transport.PathSelector
	if s.UseECMP {
		lb = &transport.FixedEntropy{}
	} else {
		lb = &UnoLB{Subflows: s.Subflows}
	}
	return params, cc, lb
}
