package uno_test

// The benchmark harness: one benchmark per results figure/table of the
// paper (regenerating it at reduced scale and reporting its headline
// metrics), plus the ablation benchmarks DESIGN.md §8 calls out. Run with
//
//	go test -bench=. -benchmem
//
// Scale up any experiment with cmd/unosim -exp <id> -scale N.

import (
	"strings"
	"testing"

	"uno"
)

// runExperiment executes one registered experiment per benchmark iteration
// at reduced scale.
func runExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report, ok := uno.RunExperiment(id, uno.ExperimentConfig{Scale: scale, Seed: 42})
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + report.String())
		}
		if len(report.Tables) == 0 || len(report.Tables[0].Rows) == 0 {
			b.Fatalf("experiment %q produced no rows", id)
		}
	}
}

func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1", 1) }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3", 0.4) }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4", 0.5) }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", 0.25) }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8", 0.25) }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9", 0.5) }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10", 0.3) }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11", 0.3) }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12", 0.3) }
func BenchmarkFig13A(b *testing.B) { runExperiment(b, "fig13a", 0.3) }
func BenchmarkFig13B(b *testing.B) { runExperiment(b, "fig13b", 0.3) }
func BenchmarkFig13C(b *testing.B) { runExperiment(b, "fig13c", 0.4) }

// Extension experiments (beyond the paper's figures; see EXPERIMENTS.md).
func BenchmarkExtTrim(b *testing.B)    { runExperiment(b, "ext-trim", 1) }
func BenchmarkExtAnnulus(b *testing.B) { runExperiment(b, "ext-annulus", 1) }

// BenchmarkTournament runs the full coexistence matrix at reduced scale.
func BenchmarkTournament(b *testing.B) { runExperiment(b, "tournament", 0.05) }

// BenchmarkTournamentCell measures one adversarial coexistence cell (UnoCC
// vs BBR at 128× RTT asymmetry) — the hot unit of the tournament matrix.
func BenchmarkTournamentCell(b *testing.B) {
	cs := uno.TournamentContenders()
	var unocc, bbr uno.TournamentContender
	for _, c := range cs {
		switch c.Name {
		case "unocc":
			unocc = c
		case "bbr":
			bbr = c
		}
	}
	var mixed uno.TournamentRegime
	for _, r := range uno.TournamentRegimes() {
		if r.Name == "mixed-128x" {
			mixed = r
		}
	}
	for i := 0; i < b.N; i++ {
		res := uno.TournamentCell(42, unocc, bbr, mixed, 4*uno.Millisecond)
		if res.Digest == 0 {
			b.Fatal("cell reported zero digest")
		}
		b.ReportMetric(res.Jain, "jain")
		b.ReportMetric(res.NearShare, "unoShare")
	}
}

// ablationIncast runs the Fig 3 mixed incast under a (possibly modified)
// Uno stack, averaged over several seeds (a single incast run is noisy),
// and reports mean/worst FCT and the time to sustained fairness.
func ablationIncast(b *testing.B, stack uno.Stack) {
	b.Helper()
	horizon := 60 * uno.Millisecond
	burstAt := 10 * uno.Millisecond
	seeds := []uint64{42, 43, 44}
	for i := 0; i < b.N; i++ {
		var burstMean, burstWorst, longMean float64
		for _, seed := range seeds {
			sim := uno.NewSim(seed, uno.DefaultTopology(), stack)
			// Two long-lived mixed flows own the receiver link...
			long := []uno.FlowSpec{
				{Src: 16, Dst: 0, Size: 96 << 20},
				{Src: 128, Dst: 0, Size: 96 << 20},
			}
			// ...then a 16-flow mixed incast burst arrives mid-run — the
			// "arrival of new flows or incast" event Quick Adapt exists
			// for (§4.1.2).
			var burst []uno.FlowSpec
			for j := 0; j < 8; j++ {
				burst = append(burst,
					uno.FlowSpec{Src: 32 + 8*j, Dst: 0, Size: 8 << 20, Start: burstAt},
					uno.FlowSpec{Src: 160 + 8*j, Dst: 0, Size: 8 << 20, Start: burstAt})
			}
			sim.Schedule(long)
			sim.Schedule(burst)
			sim.Run(horizon)
			var bSum, bWorst, lSum float64
			var bN, lN int
			for _, r := range sim.Results() {
				v := r.FCT.Seconds() * 1e6
				if r.Spec.Start == burstAt {
					bSum += v
					bN++
					if v > bWorst {
						bWorst = v
					}
				} else {
					lSum += v
					lN++
				}
			}
			if bN > 0 {
				burstMean += bSum / float64(bN)
			}
			burstWorst += bWorst
			if lN > 0 {
				longMean += lSum / float64(lN)
			}
		}
		n := float64(len(seeds))
		b.ReportMetric(burstMean/n, "burstMeanµs")
		b.ReportMetric(burstWorst/n, "burstWorstµs")
		b.ReportMetric(longMean/n, "longMeanµs")
	}
}

// BenchmarkAblationQuickAdapt isolates §4.1.2: the same incast with Quick
// Adapt disabled (compare against BenchmarkAblationBaselineUno).
func BenchmarkAblationQuickAdapt(b *testing.B) {
	ablationIncast(b, uno.CustomUnoStack("uno-noqa", func(s *uno.SystemConfig) {
		s.DisableQA = true
	}))
}

// BenchmarkAblationEpoch isolates the paper's central design decision:
// reverting the unified intra-RTT epochs to per-flow-RTT granularity
// (Gemini-style reaction timing under the UnoCC machinery).
func BenchmarkAblationEpoch(b *testing.B) {
	ablationIncast(b, uno.CustomUnoStack("uno-perflow-epochs", func(s *uno.SystemConfig) {
		s.PerFlowEpochs = true
	}))
}

// BenchmarkAblationPhantomAware disables the gentle-MD phantom/physical
// disambiguation (§4.1.3).
func BenchmarkAblationPhantomAware(b *testing.B) {
	ablationIncast(b, uno.CustomUnoStack("uno-nophantomaware", func(s *uno.SystemConfig) {
		s.DisablePhantomAware = true
	}))
}

// BenchmarkAblationBaselineUno is the unmodified system under the same
// incast, the reference point for the ablations above.
func BenchmarkAblationBaselineUno(b *testing.B) {
	ablationIncast(b, uno.UnoStack())
}

// BenchmarkCodecEncode measures the real Reed-Solomon (8,2) encoder on
// MTU-sized shards — the per-block work UnoRC's software shim adds.
func BenchmarkCodecEncode(b *testing.B) {
	codec, err := uno.NewCodec(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	codec.Warmup()
	shards := make([][]byte, codec.Total())
	for i := range shards {
		shards[i] = make([]byte, 4096)
		for j := range shards[i] {
			shards[i][j] = byte(i * j)
		}
	}
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: packets
// forwarded per second through the full fat-tree under a permutation
// workload with the fixed-window transport.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := uno.NewSim(1, uno.DefaultTopology(), uno.UnoECMPStack())
		specs := uno.PermutationFlows(uno.HostRange{Lo: 0, Hi: 256}, 1<<20, uno.NewRand(7),
			func(src, dst int) bool { return (src < 128) != (dst < 128) })
		sim.Schedule(specs)
		sim.Run(uno.Second)
		b.ReportMetric(float64(sim.EventsExecuted()), "events")
	}
}

// BenchmarkSimulatorThroughputSharded is the same permutation workload
// with one shard per DC: workers=1 runs the two shards serially (measuring
// the partition protocol's overhead), workers=2 runs one goroutine per DC
// (measuring the parallel speedup). Event counts are identical across all
// three benchmarks by construction.
func BenchmarkSimulatorThroughputSharded(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "workers1", 2: "workers2"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := uno.NewShardedSim(1, uno.DefaultTopology(), uno.UnoECMPStack(), workers)
				if err != nil {
					b.Fatal(err)
				}
				specs := uno.PermutationFlows(uno.HostRange{Lo: 0, Hi: 256}, 1<<20, uno.NewRand(7),
					func(src, dst int) bool { return (src < 128) != (dst < 128) })
				sim.Schedule(specs)
				sim.Run(uno.Second)
				b.ReportMetric(float64(sim.EventsExecuted()), "events")
			}
		})
	}
}

// sanity check that every registered experiment has a benchmark above.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	covered := map[string]bool{
		"fig1": true, "fig3": true, "fig4": true, "table1": true,
		"fig8": true, "fig9": true, "fig10": true, "fig11": true,
		"fig12": true, "fig13a": true, "fig13b": true, "fig13c": true,
		"ext-trim": true, "ext-annulus": true,
		"tournament": true,
	}
	for _, e := range uno.Experiments() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark", e.ID)
		}
		valid := strings.HasPrefix(e.ID, "fig") || strings.HasPrefix(e.ID, "ext-") ||
			e.ID == "table1" || e.ID == "tournament"
		if e.Title == "" || !valid {
			t.Errorf("experiment %s malformed", e.ID)
		}
	}
}
