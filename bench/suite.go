package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// childRun is what the parent keeps of one workload's child process.
type childRun struct {
	workload string
	res      result
	info     map[string]string // key=value pairs from the child's info lines
}

// runChild runs one workload in a child process of this binary — so each
// workload has its own heap, GC history and peak RSS — copies its output
// through, and parses the result line.
func runChild(workload string, args []string, out io.Writer) (childRun, error) {
	run := childRun{workload: workload, info: map[string]string{}}
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, append([]string{"-workload", workload}, args...)...)
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to end
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if fields := strings.Fields(last); len(fields) > 2 && fields[0] == "info" {
			for _, f := range fields[2:] {
				if k, v, ok := strings.Cut(f, "="); ok {
					run.info[k] = v
				}
			}
		}
	}
	if runErr != nil {
		return run, fmt.Errorf("%s: %w", workload, runErr)
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return run, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	return run, nil
}

// childArgs drops the flags the parent consumes itself.
func childArgs(args []string) []string {
	var out []string
	for _, a := range args {
		if name := strings.TrimLeft(a, "-"); name == "aa" || strings.HasPrefix(name, "aa=") {
			continue
		}
		out = append(out, a)
	}
	return out
}

// runAll runs every workload, each in its own child process, then checks
// what only the set can: both perm engines completed the same flows.
func runAll(args []string, out io.Writer) ([]childRun, error) {
	var runs []childRun
	var firstErr error
	for _, w := range workloads {
		r, err := runChild(w.name, childArgs(args), out)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		runs = append(runs, r)
	}
	if firstErr != nil {
		return runs, firstErr
	}
	classic, sharded := runs[0].info, runs[1].info
	same := classic["flowset"] != "" && classic["flowset"] == sharded["flowset"] &&
		classic["payload_bytes"] == sharded["payload_bytes"]
	verdict := "ok"
	if !same {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "check  suite perm-engines-agree    %-4s flowset %s vs %s, payload %s vs %s bytes\n", verdict,
		classic["flowset"], sharded["flowset"], classic["payload_bytes"], sharded["payload_bytes"])
	if !same {
		return runs, fmt.Errorf("perm_classic and perm_sharded completed different flow sets")
	}
	return runs, nil
}

// benchmarkFile is ../BENCHMARK.json. The A/A mode reads the bounds from it;
// the test suite holds the binary's vocabulary equal to it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

// runAA runs the whole set twice on the same tree and holds the second run
// to the bounds a later PR will be held to: for every workload and
// end-to-end metric, B may not be worse than A by more than the bound.
func runAA(cfg config, args []string, out io.Writer) error {
	if cfg.trace == 1 {
		return fmt.Errorf("-aa compares end-to-end metrics; run it with -trace 0")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from ./BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := runAll(args, out)
	if err != nil {
		return err
	}
	b, err := runAll(args, out)
	if err != nil {
		return err
	}
	exceeded := 0
	for i := range a {
		for _, m := range bf.EndToEnd {
			if m.Bound == nil {
				return fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name)
			}
			va, vb := a[i].res.Metrics[m.Name].Value, b[i].res.Metrics[m.Name].Value
			worse := (vb - va) / va // share of A by which B is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > *m.Bound {
				verdict = "FAIL"
				exceeded++
			}
			fmt.Fprintf(out, "aa     %-13s %-18s A=%-12.6g B=%-12.6g worse_by=%+.4f bound=%.2f %s\n",
				a[i].workload, m.Name, va, vb, worse, *m.Bound, verdict)
		}
		for _, k := range []string{"digest", "events", "flowset"} {
			if a[i].info[k] != b[i].info[k] {
				exceeded++
				fmt.Fprintf(out, "aa     %-13s %-18s A=%s B=%s FAIL\n", a[i].workload, k, a[i].info[k], b[i].info[k])
			}
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d comparisons outside their bound", exceeded)
	}
	fmt.Fprintln(out, "aa     every end-to-end metric within its bound; digests, event counts and flow sets equal")
	return nil
}
