package workload

import (
	"math"
	"testing"
	"testing/quick"

	"uno/internal/eventq"
	"uno/internal/rng"
)

func TestCanonicalCDFsValid(t *testing.T) {
	for _, c := range []*CDF{WebSearch, AlibabaWAN, GoogleRPC} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestCDFValidation(t *testing.T) {
	bad := []*CDF{
		{Name: "short", Points: []CDFPoint{{Size: 1, P: 1}}},
		{Name: "nonmono-size", Points: []CDFPoint{{Size: 10, P: 0}, {Size: 5, P: 1}}},
		{Name: "nonmono-p", Points: []CDFPoint{{Size: 1, P: 0.5}, {Size: 2, P: 0.2}, {Size: 3, P: 1}}},
		{Name: "bad-end", Points: []CDFPoint{{Size: 1, P: 0}, {Size: 2, P: 0.9}}},
		{Name: "oob", Points: []CDFPoint{{Size: 1, P: -0.1}, {Size: 2, P: 1}}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("CDF %q validated", c.Name)
		}
	}
}

func TestCDFSampleRange(t *testing.T) {
	r := rng.New(1)
	for _, c := range []*CDF{WebSearch, AlibabaWAN, GoogleRPC} {
		min := c.Points[0].Size
		max := c.Points[len(c.Points)-1].Size
		for i := 0; i < 10000; i++ {
			s := c.Sample(r)
			if s < min || s > max {
				t.Fatalf("%s: sample %d outside [%d, %d]", c.Name, s, min, max)
			}
		}
	}
}

func TestCDFSampleMeanMatchesAnalytic(t *testing.T) {
	r := rng.New(2)
	for _, c := range []*CDF{WebSearch, GoogleRPC} {
		const n = 300000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(r))
		}
		got := sum / n
		want := c.Mean()
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: sampled mean %.0f vs analytic %.0f", c.Name, got, want)
		}
	}
}

func TestCDFMedianProperty(t *testing.T) {
	// Inverse transform: P(sample <= size at P=0.5 knot) ≈ 0.5.
	r := rng.New(3)
	c := &CDF{Name: "test", Points: []CDFPoint{
		{Size: 100, P: 0}, {Size: 1000, P: 0.5}, {Size: 10000, P: 1},
	}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.Sample(r) <= 1000 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("P(X<=median) = %v", frac)
	}
}

func TestHostRangePick(t *testing.T) {
	r := rng.New(4)
	h := HostRange{Lo: 10, Hi: 20}
	if h.N() != 10 {
		t.Fatal("N wrong")
	}
	for i := 0; i < 1000; i++ {
		v := h.Pick(r)
		if v < 10 || v >= 20 {
			t.Fatalf("Pick = %d", v)
		}
		w := h.PickOther(r, 15)
		if w == 15 || w < 10 || w >= 20 {
			t.Fatalf("PickOther = %d", w)
		}
	}
	// Singleton range excluding its only member panics.
	single := HostRange{Lo: 5, Hi: 6}
	if got := single.PickOther(r, 9); got != 5 {
		t.Fatalf("singleton PickOther = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for impossible PickOther")
		}
	}()
	single.PickOther(r, 5)
}

func TestPoissonLoadAccuracy(t *testing.T) {
	r := rng.New(5)
	cfg := PoissonConfig{
		CDF:      WebSearch,
		Load:     0.4,
		LinkBps:  100e9,
		Sources:  HostRange{Lo: 0, Hi: 16},
		Dests:    HostRange{Lo: 16, Hi: 32},
		Duration: 50 * eventq.Millisecond,
	}
	specs, err := Poisson(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, s := range specs {
		bytes += s.Size
		if s.Src < 0 || s.Src >= 16 || s.Dst < 16 || s.Dst >= 32 {
			t.Fatalf("spec endpoints out of range: %+v", s)
		}
		if s.Start < 0 || s.Start >= cfg.Duration {
			t.Fatalf("spec start out of window: %v", s.Start)
		}
	}
	offered := float64(bytes) * 8 / cfg.Duration.Seconds()
	want := 0.4 * 100e9 * 16
	if math.Abs(offered-want)/want > 0.15 {
		t.Fatalf("offered load %v bps, want ~%v", offered, want)
	}
}

func TestPoissonArrivalsSorted(t *testing.T) {
	r := rng.New(6)
	specs, err := Poisson(PoissonConfig{
		CDF: GoogleRPC, Load: 0.2, LinkBps: 100e9,
		Sources: HostRange{Lo: 0, Hi: 4}, Dests: HostRange{Lo: 0, Hi: 4},
		Duration: eventq.Millisecond,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].Start < specs[i-1].Start {
			t.Fatal("arrivals not time-ordered")
		}
		if specs[i].Src == specs[i].Dst {
			t.Fatal("self-flow generated")
		}
	}
}

func TestPoissonMaxFlowsCap(t *testing.T) {
	r := rng.New(7)
	specs, err := Poisson(PoissonConfig{
		CDF: GoogleRPC, Load: 0.5, LinkBps: 100e9,
		Sources: HostRange{Lo: 0, Hi: 8}, Dests: HostRange{Lo: 0, Hi: 8},
		Duration: eventq.Second, MaxFlows: 100,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 100 {
		t.Fatalf("MaxFlows cap produced %d specs", len(specs))
	}
}

// TestPoissonSizedOnce: the output is allocated once from the expected
// arrival count — no regrowth, and no more than a few σ of slack — with and
// without a MaxFlows cap.
func TestPoissonSizedOnce(t *testing.T) {
	cfg := PoissonConfig{
		CDF: GoogleRPC, Load: 0.3, LinkBps: 100e9,
		Sources: HostRange{Lo: 0, Hi: 128}, Dests: HostRange{Lo: 0, Hi: 128},
		Duration: 400 * eventq.Microsecond,
	}
	for _, maxFlows := range []int{0, 1000} {
		cfg.MaxFlows = maxFlows
		var specs []FlowSpec
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if specs, err = Poisson(cfg, rng.New(11)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 { // the list, and the seeded generator above
			t.Fatalf("MaxFlows=%d: %v allocations per call, want the output list only", maxFlows, allocs)
		}
		if n := len(specs); n < 1000 || cap(specs) > n+n/10+16 {
			t.Fatalf("MaxFlows=%d: %d specs in a list of capacity %d", maxFlows, n, cap(specs))
		}
	}
}

func TestPoissonRejectsBadConfig(t *testing.T) {
	r := rng.New(8)
	base := PoissonConfig{
		CDF: GoogleRPC, Load: 0.5, LinkBps: 100e9,
		Sources: HostRange{Lo: 0, Hi: 8}, Dests: HostRange{Lo: 0, Hi: 8},
		Duration: eventq.Second,
	}
	bad := base
	bad.Load = 0
	if _, err := Poisson(bad, r); err == nil {
		t.Fatal("load 0 accepted")
	}
	bad = base
	bad.Load = 1.5
	if _, err := Poisson(bad, r); err == nil {
		t.Fatal("load 1.5 accepted")
	}
	bad = base
	bad.Duration = 0
	if _, err := Poisson(bad, r); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestIncastGenerator(t *testing.T) {
	specs := Incast([]int{1, 2, 3, 7}, 7, 1000, eventq.Microsecond,
		func(src int) bool { return src > 2 })
	// Destination 7 is filtered out of the sources.
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, s := range specs {
		if s.Dst != 7 || s.Size != 1000 || s.Start != eventq.Microsecond {
			t.Fatalf("bad spec %+v", s)
		}
		if s.InterDC != (s.Src > 2) {
			t.Fatal("interDC label wrong")
		}
	}
}

func TestPermutationProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%62) + 2 // 2..63
		r := rng.New(seed)
		specs := Permutation(HostRange{Lo: 100, Hi: 100 + n}, 500, r,
			func(src, dst int) bool { return false })
		if len(specs) != n {
			return false
		}
		seenDst := map[int]bool{}
		for _, s := range specs {
			if s.Src == s.Dst {
				return false // self-loop
			}
			if s.Src < 100 || s.Src >= 100+n || s.Dst < 100 || s.Dst >= 100+n {
				return false
			}
			if seenDst[s.Dst] {
				return false // not a permutation
			}
			seenDst[s.Dst] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPermutationNilLabeller: a nil labeller means "unlabelled", not a
// panic — the harness derives the class from the topology.
func TestPermutationNilLabeller(t *testing.T) {
	specs := Permutation(HostRange{Lo: 0, Hi: 16}, 4096, rng.New(3), nil)
	if len(specs) != 16 {
		t.Fatalf("%d specs, want 16", len(specs))
	}
	for _, s := range specs {
		if s.InterDC {
			t.Fatalf("nil labeller labelled %+v inter-DC", s)
		}
	}
}

func TestAllreduceGeneration(t *testing.T) {
	r := rng.New(9)
	iters, err := Allreduce(AllreduceConfig{
		Workers:    4,
		DC0Hosts:   HostRange{Lo: 0, Hi: 16},
		DC1Hosts:   HostRange{Lo: 16, Hi: 32},
		MinBytes:   1 << 20,
		MaxBytes:   4 << 20,
		Iterations: 10,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 10 {
		t.Fatalf("iterations = %d", len(iters))
	}
	for _, it := range iters {
		if it.Bytes < 1<<20 || it.Bytes >= 4<<20 {
			t.Fatalf("burst %d out of range", it.Bytes)
		}
		if len(it.Flows) != 8 { // 4 workers × 2 directions
			t.Fatalf("flows = %d", len(it.Flows))
		}
		var total int64
		for _, f := range it.Flows {
			if !f.InterDC {
				t.Fatal("allreduce flow not inter-DC")
			}
			cross := (f.Src < 16) != (f.Dst < 16)
			if !cross {
				t.Fatal("allreduce flow does not cross DCs")
			}
			total += f.Size
		}
		// Total transferred ≈ burst size (integer division slack).
		if total < it.Bytes-8 || total > it.Bytes {
			t.Fatalf("flow bytes %d vs burst %d", total, it.Bytes)
		}
	}
}

func TestAllreduceValidation(t *testing.T) {
	r := rng.New(10)
	if _, err := Allreduce(AllreduceConfig{Workers: 0}, r); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := Allreduce(AllreduceConfig{
		Workers: 20, DC0Hosts: HostRange{Lo: 0, Hi: 4}, DC1Hosts: HostRange{Lo: 4, Hi: 8},
	}, r); err == nil {
		t.Fatal("too many workers accepted")
	}
}

func TestIdealIterationTime(t *testing.T) {
	it := Iteration{Flows: []FlowSpec{
		{Size: 1 << 20}, {Size: 1 << 20}, // one each way
	}}
	got := IdealIterationTime(it, 800e9, 2*eventq.Millisecond)
	// 1 MiB per direction at 100 GB/s = 10.5µs + 2ms RTT.
	wantTx := eventq.Time(float64(1<<20) * 8 / 800e9 * float64(eventq.Second))
	if got != wantTx+2*eventq.Millisecond {
		t.Fatalf("ideal = %v, want %v", got, wantTx+2*eventq.Millisecond)
	}
}
