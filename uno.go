// Package uno is a from-scratch Go implementation of Uno, the unified
// inter- and intra-datacenter congestion-control and reliable-connectivity
// system of Bonato, Abdous, et al. (SC '25), together with the complete
// evaluation environment the paper used: a deterministic packet-level
// network simulator, dual fat-tree datacenter topologies, the Gemini /
// MPRDMA / BBR baselines, the RPS and PLB load balancers, a real
// Reed-Solomon MDS erasure codec, the paper's workload generators and
// failure models, and a harness that regenerates every results figure and
// table.
//
// This package is the public facade: it re-exports the stable surface of
// the internal packages so applications can build and run simulations —
// see examples/ for complete programs, DESIGN.md for the architecture, and
// EXPERIMENTS.md for the paper-vs-reproduction comparison.
//
// # Quick start
//
//	sim := uno.NewSim(42, uno.DefaultTopology(), uno.UnoStack())
//	flows := []uno.FlowSpec{{Src: 0, Dst: 128, Size: 64 << 20}}
//	sim.Schedule(flows)
//	sim.Run(100 * uno.Millisecond)
//	for _, r := range sim.Results() {
//	    fmt.Println(r.Spec.Src, "→", r.Spec.Dst, "FCT", r.FCT)
//	}
package uno

import (
	"uno/internal/core"
	"uno/internal/ec"
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/workload"
)

// Rand is the deterministic random generator used by workload and failure
// generators.
type Rand = rng.Rand

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Time is a simulated time in integer picoseconds.
type Time = eventq.Time

// Simulated-time unit constants.
const (
	Picosecond  = eventq.Picosecond
	Nanosecond  = eventq.Nanosecond
	Microsecond = eventq.Microsecond
	Millisecond = eventq.Millisecond
	Second      = eventq.Second
)

// TopologyConfig parameterizes the dual-datacenter fat-tree fabric.
type TopologyConfig = topo.Config

// DefaultTopology returns the paper's evaluation topology (§5.1, Table 2):
// two 8-ary fat trees (128 hosts each) joined by 8 × 100 Gb/s border
// links, 1 MiB port buffers, 14 µs intra-DC and 2 ms inter-DC base RTTs.
func DefaultTopology() TopologyConfig { return topo.DefaultConfig() }

// Sim is a runnable simulation instance: topology + protocol stack +
// scheduled flows.
type Sim = harness.Sim

// FlowSpec describes one flow to inject (host indices are positions in the
// topology's DC-major host list).
type FlowSpec = workload.FlowSpec

// FlowResult records one completed flow; a flow that never finishes
// records none.
type FlowResult = harness.FlowResult

// Stack is a named protocol configuration (congestion control + load
// balancing + transport parameters per flow).
type Stack = harness.Stack

// NewSim builds a simulation with the given seed, topology, and stack, the
// whole fabric on one shard (see NewShardedSim for one shard per
// datacenter). Identical arguments produce bit-identical runs.
func NewSim(seed uint64, cfg TopologyConfig, stack Stack) *Sim {
	return harness.MustNewSim(seed, cfg, stack)
}

// NewShardedSim builds a simulation with one shard per datacenter and the
// given worker-goroutine count (>= 1); workers selects parallelism only, so
// results are bit-identical for every worker count. workers <= 0 is NewSim:
// the whole fabric on one shard (one scheduler, no barrier, no goroutine).
func NewShardedSim(seed uint64, cfg TopologyConfig, stack Stack, workers int) (*Sim, error) {
	return harness.NewSimShards(seed, cfg, stack, workers)
}

// The protocol stacks of the paper's evaluation.
var (
	// UnoStack is the full system: UnoCC congestion control, phantom
	// queues in the fabric, and UnoRC ((8,2) erasure coding + UnoLB
	// subflow load balancing) on inter-DC flows.
	UnoStack = harness.StackUno
	// UnoECMPStack is UnoCC with plain per-flow ECMP and no erasure
	// coding (the paper's "Uno+ECMP" variant).
	UnoECMPStack = harness.StackUnoECMP
	// UnoNoECStack is UnoCC + UnoLB without erasure coding.
	UnoNoECStack = harness.StackUnoNoEC
	// GeminiStack is the Gemini baseline [Zeng et al., ICNP'19].
	GeminiStack = harness.StackGemini
	// MPRDMABBRStack is MPRDMA inside datacenters and BBR across them.
	MPRDMABBRStack = harness.StackMPRDMABBR
	// CustomUnoStack builds a Uno stack with modified SystemConfig switches
	// (ablations: disable Quick Adapt, per-flow epochs, plain ECMP, ...).
	CustomUnoStack = harness.StackUnoMod
)

// SystemConfig is a Uno stack's per-flow configuration: the fabric values
// the harness fills in from the Sim (LinkBps, IntraRTT), the variant
// switches (DisableEC, UseECMP) and the ablation switches (DisableQA,
// DisablePhantomAware, PerFlowEpochs); see CustomUnoStack. The paper's
// Table 2 values — (8,2) blocks, N = 8 subflows, α, β, K — are constants,
// and so are the RTO bounds and the NACK timer, derived from each flow's
// base RTT (DESIGN.md §7).
type SystemConfig = core.System

// Workload generation.
type (
	// CDF is a piecewise-linear flow-size distribution.
	CDF = workload.CDF
	// PoissonConfig drives Poisson flow arrivals at a target load.
	PoissonConfig = workload.PoissonConfig
	// HostRange selects a contiguous range of host indices.
	HostRange = workload.HostRange
	// AllreduceConfig models the cross-DC gradient synchronization of
	// data-parallel training (Fig 13 C).
	AllreduceConfig = workload.AllreduceConfig
)

// The paper's canonical flow-size distributions.
var (
	WebSearchCDF  = workload.WebSearch
	AlibabaWANCDF = workload.AlibabaWAN
	GoogleRPCCDF  = workload.GoogleRPC
)

// ParseCDF reads a flow-size distribution in the htsim/HPCC-style text
// format the paper's artifact ships its traces in ("<size> <cum-prob>"
// per line).
var ParseCDF = workload.ParseCDF

// Workload generator functions.
var (
	// PoissonFlows generates Poisson arrivals at a target load.
	PoissonFlows = workload.Poisson
	// IncastFlows generates an n:1 incast.
	IncastFlows = workload.Incast
	// PermutationFlows generates a random permutation across a host range.
	PermutationFlows = workload.Permutation
	// AllreduceIterations generates the training workload of Fig 13 C.
	AllreduceIterations = workload.Allreduce
	// IdealIterationTime lower-bounds one Allreduce iteration's time.
	IdealIterationTime = workload.IdealIterationTime
)

// AllreduceIteration is one training step's communication.
type AllreduceIteration = workload.Iteration

// Failure models (§2.4, §5.2.3).
type (
	// GilbertElliott is the two-state correlated loss model.
	GilbertElliott = failure.GilbertElliott
	// Flapper periodically fails and restores a link.
	Flapper = failure.Flapper
)

// Table 1 loss-model calibrations.
const (
	LossSetup1 = failure.Setup1 // 65 ms RTT pair, loss rate 5.01e-5
	LossSetup2 = failure.Setup2 // 33 ms RTT pair, loss rate 1.22e-5
)

// NewTable1Loss returns a Gilbert-Elliott process calibrated to one of the
// paper's measured datacenter pairs (Table 1).
var NewTable1Loss = failure.NewTable1Loss

// Tracing: attach one observer per shard i of sim.Cluster(), behind the
// digest observer, with
// sim.ObserveShard(i, &uno.TraceWriter{W: os.Stderr, Net: sim.Cluster().Shard(i)}).
// Assigning sim.Net.Observer instead would replace the digest observer
// (Sim.Digest stops moving) and see shard 0 only.
type (
	// FabricObserver receives every fabric-level packet event.
	FabricObserver = netsim.Observer
	// TraceWriter streams one text line per packet event.
	TraceWriter = netsim.WriterObserver
	// TraceCounter tallies sends, deliveries, and drops by reason.
	TraceCounter = netsim.CountingObserver
)

// Erasure coding: the real systematic Reed-Solomon codec UnoRC's software
// shim would deploy (§6).
type Codec = ec.Codec

// NewCodec builds an MDS codec with the given data/parity shard counts;
// the paper's UnoRC default is (8, 2).
func NewCodec(data, parity int) (*Codec, error) { return ec.New(data, parity) }

// Experiments: the paper's figures and tables as runnable units.
type (
	// Experiment is one reproducible figure or table.
	Experiment = harness.Experiment
	// ExperimentConfig controls experiment scale and seeding.
	ExperimentConfig = harness.Config
	// Report is an experiment's printable result.
	Report = harness.Report
)

// Experiments returns the full registry in paper order (fig1, fig3, fig4,
// table1, fig8 ... fig13c).
func Experiments() []Experiment { return harness.Registry() }

// RunExperiment executes the experiment with the given id at the given
// scale (1 = quick validation) and returns its report, or false if the id
// is unknown.
func RunExperiment(id string, cfg ExperimentConfig) (*Report, bool) {
	e, ok := harness.Find(id)
	if !ok {
		return nil, false
	}
	return e.Run(cfg), true
}

// The CC coexistence tournament (experiment id "tournament"): every pair
// of the repo's congestion controllers competing on a shared bottleneck
// across RTT regimes. Run the full matrix with RunExperiment("tournament",
// ...) or individual cells with TournamentCell.
type (
	// TournamentContender is one controller entering the tournament.
	TournamentContender = harness.Contender
	// TournamentRegime is one RTT configuration of a tournament cell.
	TournamentRegime = harness.Regime
	// TournamentCellResult scores one pairing under one regime.
	TournamentCellResult = harness.CellResult
)

var (
	// TournamentContenders returns the tournament's entrants (UnoCC,
	// Gemini, MPRDMA, BBR, DCTCP, Swift, Annulus).
	TournamentContenders = harness.Contenders
	// TournamentRegimes returns the swept RTT regimes (intra, inter, and
	// mixed at 16× and 128× RTT asymmetry).
	TournamentRegimes = harness.TournamentRegimes
	// TournamentCell runs one pairing under one regime and scores it.
	TournamentCell = harness.TournamentCell
)
