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
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"uno/internal/harness"
	"uno/internal/netsim"
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
		scale    = fs.Float64("scale", 1, "experiment scale; 1 = quick validation")
		seed     = fs.Uint64("seed", 42, "base random seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulation runs (independent reruns only; output is identical for any value)")
		shards = fs.String("shards", netsim.ShardMode(netsim.ShardDefault()),
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

	nshards, err := netsim.ParseShards(*shards)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	netsim.SetShardDefault(nshards)
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

	cfg := harness.Config{Scale: *scale, Seed: *seed, Parallel: *parallel}
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
