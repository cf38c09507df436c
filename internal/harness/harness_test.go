package harness

import (
	"os"
	"strings"
	"testing"
	"time"

	"uno/internal/baselines"
	"uno/internal/core"
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// chaos-test helpers.
func rngNew(seed uint64) *rng.Rand { return rng.New(seed) }

func newTable1Loss(r *rng.Rand) *failure.GilbertElliott {
	ge := failure.NewTable1Loss(failure.Setup1, r.Split())
	ge.PGoodToBad *= 100
	return ge
}

type flapperAlias = failure.Flapper

func smallTopo() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.K = 4
	return cfg
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("x", 1.0)
	tbl.AddRow("longer", 123456.789)
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer") {
		t.Fatalf("table output missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows → 5? title+header+sep+2
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
		}
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5000:    "5000",
		42.42:   "42.4",
		1.23456: "1.235",
	}
	for in, want := range cases {
		if got := fmtFloat(in); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtDurAndBytes(t *testing.T) {
	if got := fmtDur(-1); got != "-" {
		t.Errorf("fmtDur(-1) = %q", got)
	}
	if got := fmtDur(3 * eventq.Millisecond); got != "3.00ms" {
		t.Errorf("fmtDur(3ms) = %q", got)
	}
	if got := fmtDur(14 * eventq.Microsecond); got != "14.0µs" {
		t.Errorf("fmtDur(14µs) = %q", got)
	}
	for in, want := range map[int64]string{
		512:     "512B",
		2 << 10: "2KiB",
		3 << 20: "3MiB",
		4 << 30: "4GiB",
	} {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("plain", `with "quote", and comma`)
	csv := tbl.CSV()
	want := "a,b\nplain,\"with \"\"quote\"\", and comma\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestWriteArtifacts(t *testing.T) {
	r := &Report{ID: "demo", Title: "demo"}
	r.NewTable("one", "h").AddRow("v")
	r.NewTable("two", "h").AddRow("w")
	dir := t.TempDir()
	paths, err := r.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 { // two CSVs + report.txt
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing artifact %s: %v", p, err)
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "t"}
	r.NewTable("tbl", "h").AddRow("v")
	r.Note("hello %d", 7)
	s := r.String()
	for _, want := range []string{"== x: t ==", "tbl", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestConfigDefaultsAndScaling(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != 1 || cfg.Seed == 0 {
		t.Fatalf("defaults: %+v", cfg)
	}
	cfg.Scale = 0.1
	if got := cfg.scaled(100); got != 10 {
		t.Fatalf("scaled(100) at 0.1 = %d", got)
	}
	if got := cfg.scaled(3); got != 1 {
		t.Fatalf("scaled floor = %d", got)
	}
}

func TestRegistryAndFind(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 { // 12 paper figures/tables + 2 extensions + tournament
		t.Fatalf("registry has %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("fig3"); !ok {
		t.Fatal("fig3 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestStacksProducePolicies(t *testing.T) {
	sim := MustNewSim(1, smallTopo(), StackUno())
	stacks := []Stack{
		StackUno(), StackUnoECMP(), StackUnoNoEC(), StackGemini(), StackMPRDMABBR(),
		StackUnoCCWithLB("x", true, NewUnoLB),
	}
	spec := workload.FlowSpec{Src: 0, Dst: sim.Topo.Cfg.HostsPerDC(), Size: 1 << 20}
	for _, st := range stacks {
		for _, interDC := range []bool{false, true} {
			params, cc, lb := st.Policies(sim, spec, interDC)
			if cc == nil || lb == nil {
				t.Fatalf("%s: nil policy", st.Name)
			}
			if params.BaseRTT <= 0 {
				t.Fatalf("%s: no base RTT", st.Name)
			}
		}
	}
	// Class-specific choices.
	_, cc, _ := StackMPRDMABBR().Policies(sim, spec, true)
	if _, ok := cc.(*baselines.BBR); !ok {
		t.Fatalf("inter-DC mprdma+bbr cc = %T", cc)
	}
	_, cc, _ = StackMPRDMABBR().Policies(sim, spec, false)
	if _, ok := cc.(*baselines.MPRDMA); !ok {
		t.Fatalf("intra-DC mprdma+bbr cc = %T", cc)
	}
	params, cc, _ := StackUno().Policies(sim, spec, true)
	if !params.EC {
		t.Fatal("uno inter-DC flow lacks EC")
	}
	if _, ok := cc.(*core.UnoCC); !ok {
		t.Fatalf("uno cc = %T", cc)
	}
}

func TestSimIdealFCT(t *testing.T) {
	sim := MustNewSim(2, smallTopo(), StackUnoECMP())
	spec := workload.FlowSpec{Src: 0, Dst: 1, Size: 4096}
	// Single-packet flow: ideal = base RTT.
	if got, want := sim.IdealFCT(spec), sim.BaseRTT(0, 1); got != want {
		t.Fatalf("single-packet ideal %v, want %v", got, want)
	}
	// Larger flows add serialization at line rate.
	spec.Size = 1 << 20
	if got := sim.IdealFCT(spec); got <= sim.BaseRTT(0, 1) {
		t.Fatalf("large-flow ideal %v not above base RTT", got)
	}
}

func TestSimRunsFlowsOnSmallFabric(t *testing.T) {
	for _, mk := range []func() Stack{StackUno, StackGemini, StackMPRDMABBR} {
		stack := mk()
		sim := MustNewSim(3, smallTopo(), stack)
		perDC := sim.Topo.Cfg.HostsPerDC()
		specs := []workload.FlowSpec{
			{Src: 0, Dst: 5, Size: 256 << 10},
			{Src: 1, Dst: perDC + 3, Size: 256 << 10},
			{Src: perDC + 1, Dst: 2, Size: 64 << 10, Start: eventq.Millisecond},
		}
		sim.Schedule(specs)
		sim.Run(400 * eventq.Millisecond)
		if sim.Pending() != 0 {
			t.Fatalf("%s: %d flows unfinished", stack.Name, sim.Pending())
		}
		intra, inter := sim.FCTStats(false)
		if intra.N != 1 || inter.N != 2 {
			t.Fatalf("%s: class split wrong: intra %d inter %d", stack.Name, intra.N, inter.N)
		}
		for _, r := range sim.Results() {
			if r.FCT <= 0 || r.Slowdown() < 0.99 {
				t.Fatalf("%s: implausible result %+v (slowdown %v)", stack.Name, r, r.Slowdown())
			}
		}
	}
}

// TestSimRunHorizon: Run returns with the clock on its horizon while a flow
// is still pending, also for a horizon of zero or less, where a step of
// horizon/64 does not advance, and for one that is not a multiple of the
// 64 steps.
func TestSimRunHorizon(t *testing.T) {
	for _, horizon := range []eventq.Time{0, -1, 10*eventq.Microsecond + 63} {
		sim := MustNewSim(6, smallTopo(), StackUno())
		sim.Schedule([]workload.FlowSpec{{Src: 0, Dst: 5, Size: 1 << 20}})
		done := make(chan struct{})
		go func() {
			sim.Run(horizon)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Run(%v) did not return", horizon)
		}
		if want := max(horizon, 0); sim.Now() != want || sim.Pending() != 1 {
			t.Errorf("Run(%v): Now() = %v with %d flows pending, want %v with 1",
				horizon, sim.Now(), sim.Pending(), want)
		}
	}
}

func TestSimInterDCLabelComputedFromTopology(t *testing.T) {
	sim := MustNewSim(4, smallTopo(), StackUnoECMP())
	perDC := sim.Topo.Cfg.HostsPerDC()
	// Deliberately mislabel the spec; the runner must fix it.
	sim.Schedule([]workload.FlowSpec{{Src: 0, Dst: perDC, Size: 4096, InterDC: false}})
	sim.Run(100 * eventq.Millisecond)
	res := sim.Results()
	if len(res) != 1 || !res[0].Spec.InterDC {
		t.Fatalf("InterDC label not corrected: %+v", res)
	}
}

func TestFig1IsAnalytic(t *testing.T) {
	r := Fig1(Config{})
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 8 {
		t.Fatalf("fig1 shape wrong: %+v", r.Tables)
	}
	// 4 KiB at 20 ms RTT is overwhelmingly latency-bound; 4 GiB at 10 µs
	// is overwhelmingly throughput-bound.
	first := r.Tables[0].Rows[0]
	last := r.Tables[0].Rows[len(r.Tables[0].Rows)-1]
	if first[4] < "0.9" {
		t.Fatalf("4KiB@20ms fraction = %s", first[4])
	}
	if last[1] > "0.1" {
		t.Fatalf("4GiB@10µs fraction = %s", last[1])
	}
}

func TestTable1SmallScale(t *testing.T) {
	r := Table1(Config{Scale: 0.05})
	rows := r.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	// Monotone: blocks with ≥1 loss ≥ blocks with ≥2 ≥ blocks with ≥3.
	if rows[0][1] < rows[1][1] && len(rows[0][1]) == len(rows[1][1]) {
		t.Fatalf("loss counts not monotone: %v vs %v", rows[0][1], rows[1][1])
	}
}

func TestTopoForRTTRatio(t *testing.T) {
	for _, ratio := range []float64{8, 128, 512} {
		cfg := topoForRTTRatio(ratio)
		sim := MustNewSim(5, cfg, StackUnoECMP())
		got := float64(sim.Topo.InterRTT(4096)) / float64(sim.Topo.IntraRTT(4096))
		if got < ratio*0.97 || got > ratio*1.03 {
			t.Fatalf("ratio %.0f: built %.2f", ratio, got)
		}
	}
}

// TestFig8SendersInTheirDC: Figure 8's "intra" senders share the receiver's
// DC and its "inter" senders do not; every sender is a distinct host other
// than the receiver. The eighth intra sender used to land in the other DC.
func TestFig8SendersInTheirDC(t *testing.T) {
	cfg := topoForRTTRatio(128)
	sim := MustNewSim(5, cfg, StackUnoECMP())
	hosts := sim.Topo.Hosts
	for _, sc := range fig8Scenarios {
		seen := map[int]bool{}
		for _, sp := range fig8Specs(cfg, sc.intra, sc.inter, 1<<20) {
			if sp.Src == sp.Dst || seen[sp.Src] {
				t.Errorf("%s: sender %d repeats or is the receiver", sc.name, sp.Src)
			}
			seen[sp.Src] = true
			if same := sim.Topo.SameDC(hosts[sp.Src].ID(), hosts[sp.Dst].ID()); same == sp.InterDC {
				t.Errorf("%s: %d→%d labelled InterDC=%v, same DC=%v", sc.name, sp.Src, sp.Dst, sp.InterDC, same)
			}
		}
	}
}

func TestWithLBOverride(t *testing.T) {
	sim := MustNewSim(6, smallTopo(), StackUno())
	spec := workload.FlowSpec{Src: 0, Dst: 1, Size: 4096}
	st := withLB(StackGemini(), NewRPS)
	if !strings.Contains(st.Name, "spray") {
		t.Fatalf("name = %q", st.Name)
	}
	_, _, lb := st.Policies(sim, spec, false)
	if lb.Name() != "rps" {
		t.Fatalf("lb = %s", lb.Name())
	}
}

func TestChaosEverythingEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration run")
	}
	// Everything at once: full Uno stack, trimming fabric, correlated WAN
	// loss, a flapping border link, and a mixed workload. Every flow must
	// still complete.
	stack := StackUno()
	topoCfg := topo.DefaultConfig()
	topoCfg.Trimming = true
	sim := MustNewSim(99, topoCfg, stack)
	lr := rngNew(100)
	for dc := 0; dc < 2; dc++ {
		for _, il := range sim.Topo.InterLinkFor(dc, 1-dc) {
			ge := newTable1Loss(lr)
			il.Link.SetLoss(ge)
		}
	}
	flap := &flapperAlias{
		Link:    sim.Topo.InterLinkFor(0, 1)[3].Link,
		DownFor: eventq.Millisecond,
		UpFor:   4 * eventq.Millisecond,
	}
	flap.Start(sim.Net.Sched, eventq.Millisecond, 200*eventq.Millisecond)

	perDC := topoCfg.HostsPerDC()
	var specs []workload.FlowSpec
	for i := 0; i < 12; i++ {
		specs = append(specs,
			workload.FlowSpec{Src: i * 9 % perDC, Dst: (i*7 + 1) % perDC, Size: 1 << 20},
			workload.FlowSpec{Src: i * 5 % perDC, Dst: perDC + (i*11+2)%perDC, Size: 2 << 20,
				Start: eventq.Time(i) * 100 * eventq.Microsecond},
		)
	}
	sim.Schedule(specs)
	sim.Run(3 * eventq.Second)
	if sim.Pending() != 0 {
		t.Fatalf("%d flows never completed under chaos", sim.Pending())
	}
	for _, c := range sim.Conns() {
		if c != nil && c.InFlight() < 0 {
			t.Fatal("negative in-flight accounting")
		}
	}
}

func TestRateSamplerFairnessMetrics(t *testing.T) {
	// Two identical intra-DC flows through the small fabric: the sampler
	// must report high fairness and a finite time-to-fairness.
	sim := MustNewSim(7, smallTopo(), StackUno())
	specs := []workload.FlowSpec{
		{Src: 4, Dst: 0, Size: 16 << 20},
		{Src: 8, Dst: 0, Size: 16 << 20},
	}
	conns := sim.Schedule(specs)
	horizon := 6 * eventq.Millisecond
	rs := sim.SampleRates(specs, conns, horizon/24, horizon)
	sim.Run(horizon)
	// The completion-bin fix means MeanJain over a raw bin range now
	// includes the final partial bin, where even identical flows finish a
	// few packets apart; ContestedJain's mid-window is the edge-excluding
	// metric, so that is what carries the ≥0.9 bar (the raw mean keeps a
	// looser floor).
	if j := rs.ContestedJain(); j < 0.9 {
		t.Fatalf("identical flows contested Jain = %v", j)
	}
	if j := rs.MeanJain(8, 24); j < 0.85 {
		t.Fatalf("identical flows Jain = %v", j)
	}
	if ttf := rs.TimeToFairness(0.9, 2); ttf < 0 {
		t.Fatal("time-to-fairness not reached for identical flows")
	}
}

var _ = transport.Params{} // keep the import for future tests
