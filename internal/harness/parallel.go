package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the harness's fan-out layer. A Sim is a self-contained,
// single-goroutine state machine (its own eventq, Network, RNG), so
// independent (experiment, seed, scale) runs are embarrassingly parallel:
// the multi-rerun experiments (Fig 13's violin plots, Fig 3's seed
// averages) dispatch each rerun to a worker goroutine and merge results in
// job order — never in completion order — so the output is byte-identical
// to a serial run.

// RunParallel executes jobs 0..n-1 on at most `parallel` worker goroutines
// and returns the job outputs indexed by job number. Each job must be
// self-contained: it builds its own Sim/Network/eventq and must not touch
// shared mutable state. parallel <= 1 runs the jobs serially on the calling
// goroutine; parallel <= 0 uses GOMAXPROCS. The result order (and therefore
// anything folded from it) is independent of worker scheduling.
func RunParallel[T any](parallel, n int, run func(job int) T) []T {
	out := make([]T, n)
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			out[i] = run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = run(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ClampParallel caps a rerun fan-out when each rerun is itself a sharded
// simulation driving `shards` worker goroutines: the combined goroutine
// budget stays at the machine's core count, so `parallel` reruns of
// `shards`-worker sims get min(parallel, max(1, GOMAXPROCS/shards))
// workers. shards <= 0 (one shard, no goroutine) and parallel <= 1 pass through
// unchanged; parallel <= 0 (meaning "use GOMAXPROCS") resolves to the
// per-rerun budget itself.
func ClampParallel(parallel, shards int) int {
	if shards <= 0 || parallel == 1 {
		return parallel
	}
	budget := runtime.GOMAXPROCS(0) / shards
	if budget < 1 {
		budget = 1
	}
	if parallel <= 0 || parallel > budget {
		return budget
	}
	return parallel
}

// simOut is the common per-job harvest of a rerun grid: the completed
// flows, the number that missed the horizon, and the run's determinism
// fingerprint.
type simOut struct {
	Results []FlowResult
	Pending int
	Digest  uint64
}

// harvest snapshots a finished Sim into a simOut.
func harvest(sim *Sim) simOut {
	return simOut{Results: sim.Results(), Pending: sim.Pending(), Digest: sim.Digest()}
}
