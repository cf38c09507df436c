// Command unosim runs the paper's experiments and prints the tables each
// figure reports — the Go equivalent of the artifact's sc25_figX.sh
// scripts.
//
// Usage:
//
//	unosim -list
//	unosim -exp fig3
//	unosim -exp all -scale 2 -seed 7
//	unosim -exp fig13a -out results/   # CSV artifacts
//	unosim -exp fig13a -parallel 4     # fan independent reruns across cores
//	unosim -exp fig3 -shards 2         # one shard per DC, 2 worker goroutines
//	unosim -exp tournament -json t.json  # CC coexistence matrix + JSON emit
//
// Scale 1 is a minutes-long quick validation (like sc25_quick_validation);
// larger scales add flows, reruns, and duration toward paper scale.
//
// -parallel N dispatches independent (experiment, seed) simulation runs to
// up to N worker goroutines. Results are merged in job order, never in
// completion order, so the output — including each report's determinism
// digest — is byte-identical for every N. The digest line printed under a
// report fingerprints every packet event of every constituent run; two
// invocations with the same -seed must print the same digest.
//
// -shards chooses how every Sim of the run lays the fabric out on shards:
// off (the default) keeps the whole fabric on one shard; N >= 1 gives each
// datacenter its own shard, run by N worker goroutines. The value reaches the
// experiments as harness.Config.Shards, and nothing else sets it. Every N >= 1
// prints the same report; off prints different digests, because the per-DC
// partition seeds its shards differently.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"uno/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters: it returns the
// exit status (0 ok, 1 a run-time failure, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("unosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id (fig1, fig3, fig4, table1, fig8...fig13c, ext-*) or 'all'")
		scale    = fs.Float64("scale", 1, fmt.Sprintf("experiment scale, greater than 0 and at most %d; 1 = quick validation", harness.MaxScale))
		seed     = fs.Uint64("seed", 42, "base random seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulation runs, 0 for GOMAXPROCS (independent reruns only; output is identical for any value)")
		shards = fs.String("shards", "off",
			"shards per sim: off (the whole fabric on one shard and one scheduler), or one shard per DC run by N >= 1 worker goroutines (results are identical for every N >= 1; -parallel is clamped so reruns x workers stays within GOMAXPROCS)")
		list       = fs.Bool("list", false, "list available experiments")
		out        = fs.String("out", "", "also write CSV + text artifacts under this directory (like the paper's artifact_results/)")
		jsonPath   = fs.String("json", "", "write the report's machine-readable JSON emit to this file (experiments that produce one, e.g. tournament)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	nshards, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Written so that NaN fails too.
	if !(*scale > 0 && *scale <= harness.MaxScale) {
		fmt.Fprintf(stderr, "unosim: -scale %v (want a number greater than 0 and at most %d)\n", *scale, harness.MaxScale)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "unosim: -parallel %d (want 0 for GOMAXPROCS, or a positive count)\n", *parallel)
		return 2
	}
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	*parallel = harness.ClampParallel(*parallel, nshards)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "creating cpu profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "starting cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "creating mem profile: %v\n", err)
				status = 1
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "writing mem profile: %v\n", err)
				status = 1
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range harness.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(stdout, "\nrun with -exp <id> or -exp all")
			return 2
		}
		return 0
	}

	cfg := harness.Config{Scale: *scale, Seed: *seed, Parallel: *parallel, Shards: nshards}
	runExp := func(e harness.Experiment) int {
		start := time.Now()
		report := e.Run(cfg)
		fmt.Fprintln(stdout, report.String())
		fmt.Fprintf(stdout, "(%s finished in %v, parallel=%d)\n\n",
			e.ID, time.Since(start).Round(time.Millisecond), *parallel)
		if *out != "" {
			paths, err := report.WriteArtifacts(*out)
			if err != nil {
				fmt.Fprintf(stderr, "writing artifacts: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %d artifact files under %s\n\n", len(paths), *out)
		}
		if *jsonPath != "" {
			if report.JSON == nil {
				fmt.Fprintf(stderr, "experiment %s produces no JSON emit\n", e.ID)
				return 1
			}
			if err := os.WriteFile(*jsonPath, report.JSON, 0o644); err != nil {
				fmt.Fprintf(stderr, "writing json: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote JSON emit to %s\n\n", *jsonPath)
		}
		return 0
	}

	wall := time.Now()
	if *exp == "all" {
		for _, e := range harness.Registry() {
			if st := runExp(e); st != 0 {
				return st
			}
		}
		fmt.Fprintf(stdout, "(all experiments finished in %v, parallel=%d)\n",
			time.Since(wall).Round(time.Millisecond), *parallel)
		return 0
	}
	e, ok := harness.Find(*exp)
	if !ok {
		fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *exp)
		return 2
	}
	return runExp(e)
}

// parseShards parses a -shards value: "off" (0) for one shard holding the
// whole fabric, or a small non-negative worker count.
func parseShards(s string) (int, error) {
	if s == "off" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 1024 {
		return 0, fmt.Errorf("unosim: -shards %q (want a small non-negative integer, or off)", s)
	}
	return n, nil
}
