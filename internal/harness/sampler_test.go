package harness

import (
	"reflect"
	"testing"

	"uno/internal/eventq"
	"uno/internal/stats"
	"uno/internal/workload"
)

// newTestSampler builds a RateSampler directly, bypassing any simulation:
// rates[i][b] is flow i's goodput (bytes) in bin b, doneAt[i] the bin the
// flow completed in (-1 while active), classes the optional inter-DC labels.
func newTestSampler(rates [][]float64, doneAt []int, classes []bool) *RateSampler {
	rs := &RateSampler{doneAt: doneAt, inter: classes}
	for _, row := range rates {
		ts := stats.NewTimeSeries(0, eventq.Millisecond, len(row))
		for b, v := range row {
			ts.AddTo(eventq.Time(b)*eventq.Millisecond, v)
		}
		rs.Series = append(rs.Series, ts)
	}
	return rs
}

// TestRateSamplerCountsCompletionBin is the completion-bin off-by-one
// regression: doneAt records the bin a flow completed *in*, i.e. a bin the
// flow was still transmitting during, so that bin must stay in the active
// set. The pre-fix code excluded it (doneAt <= b), silently dropping the
// completion bin from every Jain computation.
func TestRateSamplerCountsCompletionBin(t *testing.T) {
	// Flow 0 completes during bin 1; flow 1 runs to the horizon.
	rs := newTestSampler(
		[][]float64{{10, 10, 0, 0}, {10, 10, 10, 10}},
		[]int{1, -1},
		[]bool{true, false},
	)
	for b, wantActive := range []int{2, 2, 1, 1} {
		if got := len(rs.activeRatesAt(b)); got != wantActive {
			t.Errorf("activeRatesAt(%d) counted %d flows, want %d", b, got, wantActive)
		}
	}
	for b, want := range []bool{true, true, false, false} {
		if got := rs.bothClassesActive(b); got != want {
			t.Errorf("bothClassesActive(%d) = %v, want %v", b, got, want)
		}
	}
	// The contested period therefore runs through the completion bin.
	if last := rs.lastContestedBin(); last != 1 {
		t.Fatalf("lastContestedBin = %d, want 1", last)
	}
	// Both contested bins have equal shares → perfect Jain.
	if j := rs.MeanJain(0, 4); j != 1 {
		t.Fatalf("MeanJain over contested bins = %v, want 1", j)
	}
}

// TestSampleRatesLateFlowOnPerDCShards: on per-DC shards a flow inside DC 1
// opens at its start time on shard 1, so its entry is still nil when the
// sampler is set up, and shard 1's timer must poll it. Polled from shard 0
// instead, the entry is read while shard 1 writes it (a race at 2 workers),
// and at 1 worker shard 0 runs its whole window, here the whole run, before
// shard 1 opens the flow, so the flow samples no byte. Every flow's sampled
// bytes must add up to its BytesAcked, identically at 1 and 2 workers.
func TestSampleRatesLateFlowOnPerDCShards(t *testing.T) {
	const interval, stop = 10 * eventq.Microsecond, 400 * eventq.Microsecond
	var series [2][][]float64
	for w, workers := range []int{1, 2} {
		sim, err := NewSimShards(13, smallTopo(), StackUno(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Cluster().Lookahead() <= stop {
			t.Fatalf("lookahead %v: the run must fit in one window", sim.Cluster().Lookahead())
		}
		perDC := sim.Topo.Cfg.HostsPerDC()
		specs := []workload.FlowSpec{
			{Src: 1, Dst: 6, Size: 64 << 10},
			{Src: perDC + 2, Dst: perDC + 9, Size: 64 << 10, Start: 20 * eventq.Microsecond},
		}
		conns := sim.Schedule(specs)
		if conns[0] != nil || conns[1] != nil {
			t.Fatalf("workers=%d: a same-shard flow was opened before its start time", workers)
		}
		rs := sim.SampleRates(specs, conns, interval, stop)
		sim.RunUntil(stop + interval)
		if sim.Pending() != 0 {
			t.Fatalf("workers=%d: %d flows did not complete", workers, sim.Pending())
		}
		for i, c := range conns {
			sampled := 0.0
			row := make([]float64, rs.Series[i].Bins())
			for b := range row {
				row[b] = rs.Series[i].Sum(b)
				sampled += row[b]
			}
			if acked := c.Stats().BytesAcked; acked == 0 || sampled != float64(acked) {
				t.Errorf("workers=%d flow %d: sampled %.0f bytes, BytesAcked %d", workers, i, sampled, acked)
			}
			series[w] = append(series[w], row)
		}
	}
	if !reflect.DeepEqual(series[0], series[1]) {
		t.Errorf("sampled series differ between 1 and 2 workers:\n%v\n%v", series[0], series[1])
	}
}
