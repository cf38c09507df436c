package core

import (
	"uno/internal/eventq"
	"uno/internal/transport"
)

// UnoRC's block shape and UnoLB's subflow count (Table 2): (8,2) blocks
// whose ten packets spread over N = 8 subflows, so a block covers every
// path.
const (
	ecData   = 8
	ecParity = 2
	subflows = 8
)

// MultipathDupAckThresh is the dup-ACK threshold of a flow sprayed over
// paths (UnoLB, RPS, PLB): three per subflow, since reordering is expected.
const MultipathDupAckThresh = 3 * subflows

// System holds what varies between the Uno stacks of an experiment: the
// fabric's line rate and intra-DC RTT, and the variant and ablation
// switches. The paper's Table 2 values are constants.
type System struct {
	// MTU in payload bytes; zero leaves the transport default (4096).
	MTU int
	// LinkBps is the line rate used for BDP computations.
	LinkBps int64
	// IntraRTT is the unloaded intra-DC RTT: it sets the unified epoch
	// period and the MD constant K (§4.1.1).
	IntraRTT eventq.Time

	// DisableEC turns UnoRC's (8,2) coding of inter-DC flows off (the
	// "Uno w/o EC" variant of Fig 13).
	DisableEC bool
	// UseECMP replaces UnoLB with single-path ECMP (the "Uno+ECMP"
	// variant of Figs 9, 10, 12).
	UseECMP bool

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

// wireBDP returns the bandwidth-delay product in wire bytes for a base RTT.
func (s System) wireBDP(rtt eventq.Time) float64 {
	return float64(s.LinkBps) / 8 * rtt.Seconds()
}

// Policies builds the transport parameters, congestion controller, and
// path selector for one flow. baseRTT is the flow's unloaded RTT (use
// topo.BaseRTT or the Table 2 constants).
func (s System) Policies(interDC bool, baseRTT eventq.Time) (transport.Params, transport.CongestionControl, transport.PathSelector) {
	params := transport.Params{MTU: s.MTU, BaseRTT: baseRTT}
	if !s.UseECMP {
		// Single-path ECMP keeps the transport's default threshold of 3.
		params.DupAckThresh = MultipathDupAckThresh
	}
	if interDC && !s.DisableEC {
		params.EC = transport.ECConfig{
			Data:         ecData,
			Parity:       ecParity,
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
		lb = &UnoLB{}
	}
	return params, cc, lb
}
