package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's whole vocabulary; bench_test.go holds them equal to
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"fct_slowdown_p50", "ratio"},
	{"fct_slowdown_p99", "ratio"},
	{"goodput_gbps", "Gb/s"},
}

// perLayer come from the traced run (--trace 1): counts from the traced
// repetition, unit costs from the isolated drives, and the ledger that
// multiplies one by the other.
var perLayer = []metricDef{
	{"eventq.events", "count"},
	{"eventq.pending_peak", "count"},
	{"eventq.sched_pop_ns_16", "ns"},
	{"eventq.sched_pop_ns_4096", "ns"},
	{"eventq.sched_pop_ns_65536", "ns"},
	{"eventq.timer_reset_ns", "ns"},

	{"netsim.pkts_sent", "count"},
	{"netsim.pkt_hops", "count"},
	{"netsim.drops_tail", "count"},
	{"netsim.drops_loss", "count"},
	{"netsim.drops_linkdown", "count"},
	{"netsim.ecn_marks", "count"},
	{"netsim.trims", "count"},
	{"netsim.hop_ns", "ns"},
	{"netsim.fabric_hop_ns", "ns"},
	{"netsim.port_enqueue_ns", "ns"},
	{"netsim.digest_fold_ns", "ns"},
	{"netsim.pool_cycle_ns", "ns"},

	{"netsim.cluster.windows", "count"},
	{"netsim.cluster.shard_balance", "ratio"},
	{"netsim.cluster.speedup", "ratio"},
	{"netsim.cluster.idle_window_us", "us"},

	{"transport.flows", "count"},
	{"transport.pkts_sent", "count"},
	{"transport.acks", "count"},
	{"transport.retx_frac", "ratio"},
	{"transport.marked_ack_frac", "ratio"},
	{"transport.timeouts", "count"},
	{"transport.fast_retx", "count"},
	{"transport.nacks", "count"},
	{"transport.flow_cycle_us", "us"},
	{"transport.alloc_b_per_flow", "B"},
	{"transport.pkt_path_ns", "ns"},

	{"core.unocc.calls", "count"},
	{"core.unocc.onack_ns", "ns"},
	{"core.unolb.calls", "count"},
	{"core.unolb.assign_ns", "ns"},
	{"core.policies_us_per_flow", "us"},

	{"baselines.gemini.onack_ns", "ns"},
	{"baselines.mprdma.onack_ns", "ns"},
	{"baselines.bbr.onack_ns", "ns"},
	{"baselines.dctcp.onack_ns", "ns"},
	{"baselines.swift.onack_ns", "ns"},
	{"lb.rps.assign_ns", "ns"},
	{"lb.plb.assign_ns", "ns"},

	{"ec.rs_encode_mbps", "MB/s"},
	{"ec.rs_reconstruct_mbps", "MB/s"},
	{"ec.fountain_encode_mbps", "MB/s"},
	{"ec.fountain_decode_mbps", "MB/s"},

	{"failure.ge_drop_ns", "ns"},
	{"failure.loss_rate", "ratio"},

	{"topo.build_ms", "ms"},
	{"topo.build_cluster_ms", "ms"},
	{"workload.gen_ms", "ms"},
	{"workload.poisson_ns_per_flow", "ns"},
	{"harness.schedule_ms", "ms"},

	{"harness.ns_per_event", "ns"},
	{"harness.events_per_s", "1/s"},
	{"harness.results_ms", "ms"},
	{"stats.summarize_ms", "ms"},
	{"stats.summarize_ns_per_sample", "ns"},
	{"harness.runparallel_us_per_job", "us"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},

	{"ledger.eventq_share", "ratio"},
	{"ledger.netsim_share", "ratio"},
	{"ledger.transport_share", "ratio"},
	{"ledger.cc_share", "ratio"},
	{"ledger.lb_share", "ratio"},
	{"ledger.flow_share", "ratio"},
	{"ledger.post_share", "ratio"},
	{"ledger.unattributed_share", "ratio"},

	{"trace.overhead_frac", "ratio"},

	{"host.calib_cpu_ns", "ns"},
	{"host.calib_mem_ns", "ns"},
	{"host.calib_drift", "ratio"},
}

// report collects one workload's readings and prints them.
type report struct {
	out      io.Writer
	workload string
	values   map[string]reading
	failures int // output checks that failed
}

func newReport(out io.Writer, workload string) *report {
	return &report{out: out, workload: workload, values: map[string]reading{}}
}

func (r *report) set(name string, rd reading) { r.values[name] = rd }

func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "info   %s %s\n", r.workload, fmt.Sprintf(format, args...))
}

// check prints one output check and counts it when it failed.
func (r *report) check(name string, ok bool, format string, args ...any) {
	verdict := "ok"
	if !ok {
		verdict = "FAIL"
		r.failures++
	}
	fmt.Fprintf(r.out, "check  %s %-22s %-4s %s\n", r.workload, name, verdict, fmt.Sprintf(format, args...))
}

// result is the last line of a run, in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints every metric of defs by name with its unit, then the result
// line. It is an error for a metric of defs to be missing or for a reading
// to have been set that defs does not name.
func (r *report) finish(defs []metricDef, attempted, failed int) (result, error) {
	res := result{Correct: r.failures == 0 && failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rd, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(rd.value) || math.IsInf(rd.value, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, rd.value)
		}
		line := fmt.Sprintf("metric %s %-32s %14.6g %-5s", r.workload, d.name, rd.value, d.unit)
		if rd.n > 1 {
			line += fmt.Sprintf(" median=%.6g q1=%.6g q3=%.6g n=%d", rd.median, rd.q1, rd.q3, rd.n)
		}
		fmt.Fprintln(r.out, line)
		res.Metrics[d.name] = metricValue{Value: rd.value, Unit: d.unit}
	}
	if len(r.values) != len(defs) {
		return res, fmt.Errorf("%d readings set, %d metrics defined", len(r.values), len(defs))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(r.out, "%s\n", line)
	return res, nil
}
