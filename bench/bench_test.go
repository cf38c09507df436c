package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"uno/internal/baselines"
	"uno/internal/transport"
)

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestVocabularyMatchesBenchmarkJSON holds the names and units the binary
// prints equal to the ones BENCHMARK.json promises, in order, each used once.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	use := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, js []benchmarkMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(js), len(defs))
		}
		for i, m := range js {
			use(m.Name)
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], binary %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: only end-to-end metrics have a bound, in (0, 0.25]", m.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}

// runTiny runs one workload in-process at a scale where it takes a fraction
// of a second, and returns its output lines and parsed result line.
func runTiny(t *testing.T, workload string, trace string) ([]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "5", "-seconds", "0.02", "-scale", "0.004",
		"-trace", trace, "-outdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v", workload, trace, err)
	}
	return lines, res
}

// TestEveryWorkloadPrintsItsMetrics runs all four workloads both ways and
// checks the printed metric names against the vocabulary, once each.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			lines, res := runTiny(t, w.name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var printed []string
			for _, l := range lines {
				if f := strings.Fields(l); len(f) > 3 && f[0] == "metric" {
					if f[1] != w.name {
						t.Errorf("metric line names workload %q, want %q", f[1], w.name)
					}
					printed = append(printed, f[2])
				}
			}
			if len(printed) != len(defs) || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%s: %d metric lines, %d result metrics, want %d", w.name, trace, len(printed), len(res.Metrics), len(defs))
			}
			for i, d := range defs {
				if printed[i] != d.name {
					t.Errorf("%s trace=%s: metric line %d is %s, want %s", w.name, trace, i, printed[i], d.name)
				}
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%s: result metric %s = %+v, want unit %s", w.name, trace, d.name, got, d.unit)
				}
			}
		}
	}
}

// TestProbesLeaveTheDigestAlone: the policy wrappers, the counting observers
// and the windowed run loop of a traced repetition must not change what the
// simulation does, on either engine, and the Cnm extension must survive
// wrapping exactly when the inner controller has it.
func TestProbesLeaveTheDigestAlone(t *testing.T) {
	for _, name := range []string{"perm_classic", "perm_sharded", "wan_lossy_ec"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := w.repetition(3, repOpts{scale: 0.01, workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.repetition(3, repOpts{scale: 0.01, workers: 2, tr: newTracer(name), probes: newProbes(2, 4, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest || plain.events != traced.events || plain.completed != traced.completed {
			t.Errorf("%s: traced digest %#x events %d completed %d, untraced %#x %d %d", name,
				traced.digest, traced.events, traced.completed, plain.digest, plain.events, plain.completed)
		}
		if traced.traced.meters.ccAck.calls == 0 || traced.traced.meters.ccAck.samples == 0 {
			t.Errorf("%s: the OnAck probe saw %+v", name, traced.traced.meters.ccAck)
		}
	}
}

func TestCnmSurvivesWrappingOnlyWhenPresent(t *testing.T) {
	m := &shardMeters{}
	if _, ok := wrapCC(baselines.NewAnnulus(&transport.FixedWindow{}), m).(transport.CnmReceiver); !ok {
		t.Error("wrapping Annulus lost OnCnm")
	}
	if _, ok := wrapCC(&transport.FixedWindow{}, m).(transport.CnmReceiver); ok {
		t.Error("wrapping FixedWindow grew an OnCnm")
	}
}

// TestHermeticRefusesEngineSwitches: a run under one of the environment
// switches would measure a non-default mode, so it must not start.
func TestHermeticRefusesEngineSwitches(t *testing.T) {
	t.Setenv("UNO_BATCH", "on")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "rpc_storm"}, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), "UNO_BATCH") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartile rule to the one the
// driver applies: statistics.quantiles(values, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	got := summarize([]float64{9, 1, 4, 7, 3, 8, 2, 6, 5, 10})
	if got.q1 != 2.75 || got.value != 5.5 || got.median != 5.5 || got.q3 != 8.25 || got.n != 10 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75, median 5.5, q3 8.25", got)
	}
}
