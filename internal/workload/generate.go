package workload

import (
	"fmt"
	"math"

	"uno/internal/eventq"
	"uno/internal/rng"
)

// FlowSpec describes one flow to inject: host indices are positions in the
// topology's DC-major host list.
type FlowSpec struct {
	Src, Dst int
	Size     int64
	Start    eventq.Time
	InterDC  bool
}

// HostRange identifies a contiguous range of host indices (one DC, or the
// whole fabric).
type HostRange struct {
	Lo, Hi int // [Lo, Hi)
}

// N returns the number of hosts in the range.
func (h HostRange) N() int { return h.Hi - h.Lo }

// Pick returns a uniformly random host in the range.
func (h HostRange) Pick(r *rng.Rand) int { return h.Lo + r.Intn(h.N()) }

// PickOther returns a uniformly random host in the range different from
// exclude (which need not be in the range).
func (h HostRange) PickOther(r *rng.Rand, exclude int) int {
	if h.N() == 1 {
		if h.Lo == exclude {
			panic("workload: cannot pick a distinct host from a singleton range")
		}
		return h.Lo
	}
	for {
		v := h.Pick(r)
		if v != exclude {
			return v
		}
	}
}

// PoissonConfig drives the realistic-workload generator: flows with sizes
// from CDF arrive as a Poisson process whose rate is scaled so the offered
// load equals Load × the aggregate host bandwidth of the source range
// (the standard load definition of the paper's §5.1 and its antecedents).
type PoissonConfig struct {
	CDF      *CDF
	Load     float64 // fraction of aggregate capacity, e.g. 0.4
	LinkBps  int64   // per-host line rate
	Sources  HostRange
	Dests    HostRange
	Duration eventq.Time // arrival window [0, Duration)
	MaxFlows int         // optional cap on generated flows (scaled runs)
	InterDC  bool        // label for the generated specs
}

// Poisson generates the arrival sequence.
func Poisson(cfg PoissonConfig, r *rng.Rand) ([]FlowSpec, error) {
	if cfg.Load <= 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("workload: load %v out of (0, 1]", cfg.Load)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: non-positive duration")
	}
	if err := cfg.CDF.Validate(); err != nil {
		return nil, err
	}
	aggBps := float64(cfg.LinkBps) * float64(cfg.Sources.N())
	bytesPerSec := cfg.Load * aggBps / 8
	flowsPerSec := bytesPerSec / cfg.CDF.Mean()
	meanGap := 1 / flowsPerSec // seconds

	// Size the output once: the arrival count is Poisson around its mean,
	// so mean + 4σ (plus a floor for tiny means) is exceeded about once in
	// 30,000 calls, and growing by doubling would copy the list five times
	// over.
	want := flowsPerSec * cfg.Duration.Seconds()
	want += 4*math.Sqrt(want) + 16
	if cfg.MaxFlows > 0 && want > float64(cfg.MaxFlows) {
		want = float64(cfg.MaxFlows)
	}
	specs := make([]FlowSpec, 0, int(want))
	t := 0.0
	for {
		t += r.Exp(meanGap)
		at := eventq.Time(t * float64(eventq.Second))
		if at >= cfg.Duration {
			break
		}
		src := cfg.Sources.Pick(r)
		dst := cfg.Dests.PickOther(r, src)
		specs = append(specs, FlowSpec{
			Src: src, Dst: dst,
			Size:    cfg.CDF.Sample(r),
			Start:   at,
			InterDC: cfg.InterDC,
		})
		if cfg.MaxFlows > 0 && len(specs) >= cfg.MaxFlows {
			break
		}
	}
	return specs, nil
}

// Incast generates n flows of the given size from distinct sources to one
// destination, all starting at start.
func Incast(sources []int, dst int, size int64, start eventq.Time, interDC func(src int) bool) []FlowSpec {
	specs := make([]FlowSpec, 0, len(sources))
	for _, s := range sources {
		if s == dst {
			continue
		}
		specs = append(specs, FlowSpec{
			Src: s, Dst: dst, Size: size, Start: start, InterDC: interDC(s),
		})
	}
	return specs
}

// Permutation generates one flow per host: each host sends size bytes to a
// distinct random destination across the whole host range (within or
// across DCs), forming a random permutation with no self-loops. interDC
// labels the specs; nil leaves them unlabelled (the harness re-derives the
// class from the topology anyway).
func Permutation(hosts HostRange, size int64, r *rng.Rand, interDC func(src, dst int) bool) []FlowSpec {
	n := hosts.N()
	perm := r.Perm(n)
	// Fix self-mappings by swapping with a neighbour.
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	specs := make([]FlowSpec, 0, n)
	for i := 0; i < n; i++ {
		src, dst := hosts.Lo+i, hosts.Lo+perm[i]
		specs = append(specs, FlowSpec{
			Src: src, Dst: dst, Size: size, InterDC: interDC != nil && interDC(src, dst),
		})
	}
	return specs
}
