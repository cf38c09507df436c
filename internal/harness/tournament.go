package harness

import (
	"encoding/json"
	"fmt"

	"uno/internal/baselines"
	"uno/internal/eventq"
	"uno/internal/stats"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// This file is the CC coexistence tournament (`unosim -exp tournament`):
// every pair of the repo's congestion controllers competes on a shared
// bottleneck across RTT regimes, in the spirit of CoCo-Beholder's
// observation that CC schemes are rarely evaluated *against each other*.
// Each cell gives scheme A two flows and scheme B two flows into one
// receiver and reports the contested Jain index, the per-scheme throughput
// shares, and the time to sustained fairness. The full matrix fans out
// through RunParallel, so the report — including its digest — is
// byte-identical at any parallelism.

// Contender is one controller entering the tournament: a name, the fabric
// features its flows assume, and a per-flow policy constructor (the same
// signature as Stack.Policies).
type Contender struct {
	Name string
	// Phantom and QCN are the fabric knobs this contender's stack needs.
	// A cell enables the union of both contenders' knobs — coexistence on
	// a real fabric means sharing whatever marking the fabric does, so
	// e.g. phantom-queue ECN is visible to every ECN-responsive scheme in
	// the cell, not just Uno's.
	Phantom bool
	QCN     bool
	Policy  func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector)
}

// uniformCC builds a contender policy that runs the same controller for
// both traffic classes (the tournament deliberately takes single-class
// controllers out of their comfort zone), with ECMP routing and no EC. The
// controller reads the flow's base RTT from its Conn's Params.
func uniformCC(mk func() transport.CongestionControl) func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
	return func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
		return transport.Params{BaseRTT: s.BaseRTT(spec.Src, spec.Dst)}, mk(), &transport.FixedEntropy{}
	}
}

// Contenders returns the tournament's entrants: every congestion
// controller in the repo. UnoCC runs its paper configuration minus
// multipath extras (ECMP, no EC) so the cells compare congestion control,
// not load balancing; Gemini and MPRDMA+BBR-style split stacks are
// represented by their controllers individually, each handling both
// traffic classes.
func Contenders() []Contender {
	return []Contender{
		{Name: "unocc", Phantom: true, Policy: StackUnoECMP().Policies},
		{Name: "gemini", Policy: StackGemini().Policies},
		{Name: "mprdma", Policy: uniformCC(func() transport.CongestionControl { return baselines.NewMPRDMA() })},
		{Name: "bbr", Policy: uniformCC(func() transport.CongestionControl { return baselines.NewBBR() })},
		{Name: "dctcp", Policy: uniformCC(func() transport.CongestionControl { return baselines.NewDCTCP() })},
		{Name: "swift", Policy: uniformCC(func() transport.CongestionControl { return baselines.NewSwift() })},
		{Name: "annulus", QCN: true, Policy: uniformCC(func() transport.CongestionControl {
			return baselines.NewAnnulus(baselines.NewBBR())
		})},
	}
}

// Regime is one RTT configuration of a tournament cell: which traffic
// class each side's flows belong to, and the fabric's inter/intra base-RTT
// ratio (only meaningful when a side crosses the border).
type Regime struct {
	Name  string
	Ratio float64
	// NearInter/FarInter place each scheme's sources: false = DC0 (same
	// DC as the receiver), true = DC1 (across the border).
	NearInter bool
	FarInter  bool
}

// TournamentRegimes returns the swept RTT regimes: symmetric intra-DC
// (1× RTT asymmetry), symmetric inter-DC (both schemes cross the WAN), and
// the adversarial mixed cells at 16× and 128× asymmetry where the far
// scheme fights a 100× RTT handicap.
func TournamentRegimes() []Regime {
	return []Regime{
		{Name: "intra", Ratio: 1},
		{Name: "inter", Ratio: 128, NearInter: true, FarInter: true},
		{Name: "mixed-16x", Ratio: 16, FarInter: true},
		{Name: "mixed-128x", Ratio: 128, FarInter: true},
	}
}

// CellResult is one tournament cell: contender A ("near") versus contender
// B ("far") under one RTT regime.
type CellResult struct {
	Near   string `json:"near"`
	Far    string `json:"far"`
	Regime string `json:"regime"`
	// Jain is the mean Jain index over the contested mid-window.
	Jain float64 `json:"jain"`
	// NearShare/FarShare split the bottleneck throughput between the two
	// schemes over the same window (they sum to 1).
	NearShare float64 `json:"near_share"`
	FarShare  float64 `json:"far_share"`
	// TTFMillis is the time to sustained fairness (Jain ≥ 0.75 for 6
	// bins) in milliseconds, or -1 when never reached.
	TTFMillis float64 `json:"ttf_ms"`
	// DigestHex is the run's determinism fingerprint.
	DigestHex string `json:"digest"`

	TTF    eventq.Time `json:"-"`
	Digest uint64      `json:"-"`
}

// tournamentFlows is the per-scheme flow count of a cell.
const tournamentFlows = 2

// TournamentCell runs one pairing under one regime on a one-shard Sim:
// near and far each drive two long-lived (1 GiB) flows into host 0 of DC0
// and the cell is scored over the contested window. Long-lived flows never
// complete inside the horizon, so the cell measures steady-state coexistence
// rather than completion order.
func TournamentCell(seed uint64, near, far Contender, reg Regime, horizon eventq.Time) CellResult {
	return Config{Seed: seed}.tournamentCell(near, far, reg, horizon)
}

// tournamentCell is TournamentCell with the seed and partition of c.
func (c Config) tournamentCell(near, far Contender, reg Regime, horizon eventq.Time) CellResult {
	topoCfg := topo.DefaultConfig()
	if reg.Ratio > 1 {
		topoCfg = topoForRTTRatio(reg.Ratio)
	}
	perDC := topoCfg.HostsPerDC()
	hpp := perDC / topoCfg.K // hosts per pod

	// Sources spread over distinct pods (near: pods 1-2, far: pods 3-4)
	// so only the receiver's edge downlink is shared; inter-DC sides use
	// the mirror hosts of DC1.
	var specs []workload.FlowSpec
	farSrc := make(map[int]bool, tournamentFlows)
	for i := 0; i < tournamentFlows; i++ {
		src := (i+1)*hpp + i
		if reg.NearInter {
			src += perDC
		}
		specs = append(specs, workload.FlowSpec{
			Src: src, Dst: 0, Size: 1 << 30, InterDC: reg.NearInter,
		})
	}
	for i := 0; i < tournamentFlows; i++ {
		src := (i+1+tournamentFlows)*hpp + i
		if reg.FarInter {
			src += perDC
		}
		farSrc[src] = true
		specs = append(specs, workload.FlowSpec{
			Src: src, Dst: 0, Size: 1 << 30, InterDC: reg.FarInter,
		})
	}

	stack := Stack{
		Name:    near.Name + " vs " + far.Name,
		Phantom: near.Phantom || far.Phantom,
		QCN:     near.QCN || far.QCN,
		Policies: func(s *Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
			if farSrc[spec.Src] {
				return far.Policy(s, spec, interDC)
			}
			return near.Policy(s, spec, interDC)
		},
	}
	sim := c.newSim(c.Seed, topoCfg, stack)
	conns := sim.Schedule(specs)
	bin := horizon / 60
	rs := sim.SampleRates(specs, conns, bin, horizon)
	// The sampler's two "classes" here are scheme membership (near/far),
	// so the contested window requires both *schemes* active — the same
	// guard the mixed-class experiments use for intra/inter.
	classes := make([]bool, len(specs))
	group := make([]int, len(specs))
	for i := range specs {
		if i >= tournamentFlows {
			classes[i] = true
			group[i] = 1
		}
	}
	rs.SetClasses(classes)
	sim.RunUntil(horizon)

	res := CellResult{
		Near:   near.Name,
		Far:    far.Name,
		Regime: reg.Name,
		Jain:   rs.ContestedJain(),
		TTF:    rs.TimeToFairness(0.75, 6),
		Digest: sim.Digest(),
	}
	res.TTFMillis = -1
	if res.TTF >= 0 {
		res.TTFMillis = res.TTF.Seconds() * 1e3
	}
	res.DigestHex = fmt.Sprintf("%016x", res.Digest)
	// Per-scheme throughput shares over the same mid-window ContestedJain
	// scores.
	if last := rs.lastContestedBin(); last >= 0 {
		lo, hi := last/2, last*3/4+1
		sums := make([]float64, len(conns))
		for i := range conns {
			for b := lo; b < hi; b++ {
				sums[i] += rs.Series[i].Sum(b)
			}
		}
		shares := stats.Shares(stats.GroupSums(sums, group, 2))
		res.NearShare, res.FarShare = shares[0], shares[1]
	}
	return res
}

// Tournament runs the full pairwise matrix (every unordered pair of
// contenders, self-pairings included, under every regime) and reports one
// table per regime plus a machine-readable JSON emit for trend tracking.
func Tournament(cfg Config) *Report {
	return tournament(cfg, Contenders())
}

// tournament is Tournament over an explicit contender set (tests run
// reduced sub-matrices).
func tournament(cfg Config, cs []Contender) *Report {
	cfg = cfg.withDefaults()
	r := &Report{ID: "tournament", Title: "CC coexistence tournament: pairwise matrix on shared bottlenecks"}
	horizon := eventq.Time(cfg.scaled(40)) * eventq.Millisecond
	regs := TournamentRegimes()
	type pair struct{ a, b int }
	var pairs []pair
	for i := range cs {
		for j := i; j < len(cs); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}

	// One job per cell; results land in job order, so both the tables and
	// the folded digest are independent of the worker count.
	cells := RunParallel(cfg.Parallel, len(pairs)*len(regs), func(job int) CellResult {
		p, reg := pairs[job/len(regs)], regs[job%len(regs)]
		return cfg.tournamentCell(cs[p.a], cs[p.b], reg, horizon)
	})

	for ri, reg := range regs {
		title := fmt.Sprintf("%s: A intra, B intra", reg.Name)
		switch {
		case reg.NearInter && reg.FarInter:
			title = fmt.Sprintf("%s: A inter, B inter (RTT ratio %gx)", reg.Name, reg.Ratio)
		case reg.FarInter:
			title = fmt.Sprintf("%s: A intra, B inter (RTT ratio %gx)", reg.Name, reg.Ratio)
		}
		tbl := r.NewTable(title,
			"A vs B", "Jain (mid)", "share A", "share B", "ttf(J>0.75)")
		for pi := range pairs {
			c := cells[pi*len(regs)+ri]
			tbl.AddRow(c.Near+" vs "+c.Far, c.Jain,
				fmt.Sprintf("%.3f", c.NearShare), fmt.Sprintf("%.3f", c.FarShare),
				fmtDur(c.TTF))
		}
	}
	for _, c := range cells {
		r.FoldDigest(c.Digest)
	}

	js, err := json.MarshalIndent(struct {
		Experiment string       `json:"experiment"`
		Seed       uint64       `json:"seed"`
		Scale      float64      `json:"scale"`
		HorizonMs  float64      `json:"horizon_ms"`
		Contenders int          `json:"contenders"`
		Cells      []CellResult `json:"cells"`
	}{"tournament", cfg.Seed, cfg.Scale, horizon.Seconds() * 1e3, len(cs), cells}, "", "  ")
	if err != nil {
		panic(err) // static shape; cannot fail
	}
	r.JSON = js

	r.Note("%d contenders, %d pairings × %d regimes = %d cells; %d long-lived 1GiB flows per scheme into host 0, horizon %s, bin %s",
		len(cs), len(pairs), len(regs), len(cells), tournamentFlows, fmtDur(horizon), fmtDur(horizon/60))
	r.Note("fabric per cell: phantom queues iff a Uno contender plays, QCN iff Annulus plays; marking is visible to every ECN-responsive scheme in the cell")
	r.Note("shares/Jain over the contested mid-window; ttf = first time Jain ≥ 0.75 holds 6 consecutive bins")
	return r
}
