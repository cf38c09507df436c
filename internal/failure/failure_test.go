package failure

import (
	"math"
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

func TestUniformLossRate(t *testing.T) {
	u := &UniformLoss{P: 0.1, Rand: rng.New(1)}
	drops := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if u.Drop(0, nil) {
			drops++
		}
	}
	rate := float64(drops) / n
	if math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("uniform loss rate = %v, want 0.1", rate)
	}
}

func TestGilbertElliottValidate(t *testing.T) {
	g := &GilbertElliott{PGoodToBad: 1.5, Rand: rng.New(1)}
	if g.Validate() == nil {
		t.Fatal("probability > 1 validated")
	}
	g = &GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.5}
	if g.Validate() == nil {
		t.Fatal("nil Rand validated")
	}
	g.Rand = rng.New(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGilbertElliottStationaryRate(t *testing.T) {
	g := &GilbertElliott{
		PGoodToBad: 0.01, PBadToGood: 0.3, LossGood: 0, LossBad: 0.5,
		Rand: rng.New(2),
	}
	want := g.StationaryLossRate()
	drops := 0
	const n = 2000000
	for i := 0; i < n; i++ {
		if g.Drop(0, nil) {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical loss %v vs stationary %v", got, want)
	}
}

func TestStationaryRateDegenerate(t *testing.T) {
	g := &GilbertElliott{LossGood: 0.25}
	if got := g.StationaryLossRate(); got != 0.25 {
		t.Fatalf("degenerate stationary rate = %v", got)
	}
}

// TestGilbertElliottBurstier verifies the property Table 1 demonstrates:
// losses cluster within 10-packet blocks far more than an independent
// (Bernoulli) process at the same average rate would.
func TestGilbertElliottBurstier(t *testing.T) {
	ge := NewTable1Loss(Setup1, rng.New(3))
	rate := ge.StationaryLossRate()
	indep := &UniformLoss{P: rate, Rand: rng.New(4)}

	multi := func(drop func() bool) float64 {
		const blocks = 4000000
		count := 0
		for b := 0; b < blocks; b++ {
			losses := 0
			for k := 0; k < 10; k++ {
				if drop() {
					losses++
				}
			}
			if losses >= 2 {
				count++
			}
		}
		return float64(count) / blocks
	}
	pGE := multi(func() bool { return ge.Drop(0, nil) })
	pIndep := multi(func() bool { return indep.Drop(0, nil) })
	if pGE < 5*pIndep {
		t.Fatalf("GE multi-loss blocks %v not ≫ independent %v", pGE, pIndep)
	}
}

func TestTable1Calibration(t *testing.T) {
	cases := []struct {
		setup Table1Setup
		want  float64
	}{
		{Setup1, 5.01e-5},
		{Setup2, 1.22e-5},
	}
	for _, c := range cases {
		g := NewTable1Loss(c.setup, rng.New(5))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		got := g.StationaryLossRate()
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Fatalf("setup %d stationary rate %v, want %v", c.setup, got, c.want)
		}
	}
}

// TestGilbertElliottDegenerateParams is the degenerate-parameter table from
// the EC block-path sweep: NaNs must be rejected (the pre-fix range check
// `p < 0 || p > 1` is false for NaN on both sides, silently accepting it),
// absorbing chains must return their absorbing state's loss rate, and the
// calibration solver must error instead of solving outside [0,1].
func TestGilbertElliottDegenerateParams(t *testing.T) {
	nan := math.NaN()
	validate := []struct {
		name string
		g    GilbertElliott
		ok   bool
	}{
		{"all-zero", GilbertElliott{}, true},
		{"nan-pgb", GilbertElliott{PGoodToBad: nan}, false},
		{"nan-pbg", GilbertElliott{PBadToGood: nan}, false},
		{"nan-lossgood", GilbertElliott{LossGood: nan}, false},
		{"nan-lossbad", GilbertElliott{LossBad: nan}, false},
		{"negative", GilbertElliott{PBadToGood: -0.1}, false},
		{"above-one", GilbertElliott{LossBad: 1.01}, false},
		{"boundary", GilbertElliott{PGoodToBad: 1, PBadToGood: 1, LossBad: 1}, true},
	}
	for _, c := range validate {
		c.g.Rand = rng.New(1)
		if err := c.g.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate %s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}

	stationary := []struct {
		name string
		g    GilbertElliott
		want float64
	}{
		// Both transitions zero: stuck in the initial Good state.
		{"frozen", GilbertElliott{LossGood: 0.25, LossBad: 0.9}, 0.25},
		// Bad is absorbing: long-run rate is the Bad loss rate.
		{"absorbing-bad", GilbertElliott{PGoodToBad: 0.2, LossGood: 0.1, LossBad: 0.9}, 0.9},
		// Good is absorbing (never leaves Good anyway).
		{"absorbing-good", GilbertElliott{PBadToGood: 0.2, LossGood: 0.1, LossBad: 0.9}, 0.1},
	}
	for _, c := range stationary {
		if got := c.g.StationaryLossRate(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("StationaryLossRate %s = %v, want %v", c.name, got, c.want)
		}
	}

	calib := []struct {
		name               string
		target, pbg, lossB float64
		ok                 bool
	}{
		{"table1-setup1", 5.01e-5, 0.3, 0.5, true},
		{"zero-target", 0, 0.3, 0.5, true},
		{"nan-target", nan, 0.3, 0.5, false},
		{"nan-lossbad", 1e-4, 0.3, nan, false},
		{"target-at-lossbad", 0.5, 0.3, 0.5, false},
		{"target-above-lossbad", 0.9, 0.3, 0.5, false}, // pre-fix: pGB < 0
		{"zero-lossbad", 1e-4, 0.3, 0, false},
		{"pbg-above-one", 1e-4, 1.5, 0.5, false},
		{"nan-pbg", 1e-4, nan, 0.5, false},
	}
	for _, c := range calib {
		g, err := NewCalibratedLoss(c.target, c.pbg, c.lossB, rng.New(2))
		if (err == nil) != c.ok {
			t.Errorf("NewCalibratedLoss %s: err=%v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		if verr := g.Validate(); verr != nil {
			t.Errorf("NewCalibratedLoss %s returned invalid model: %v", c.name, verr)
		}
		if got := g.StationaryLossRate(); math.Abs(got-c.target) > 1e-12 {
			t.Errorf("NewCalibratedLoss %s stationary %v, want %v", c.name, got, c.target)
		}
	}
}

func TestTable1UnknownSetupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown setup did not panic")
		}
	}()
	NewTable1Loss(Table1Setup(9), rng.New(1))
}

// linkFixture builds a minimal host→host link to exercise failure helpers.
func linkFixture() (*netsim.Network, *netsim.Host, *netsim.Host, *netsim.Link) {
	net := netsim.New(7)
	a := netsim.NewHost(net, "a", 0)
	b := netsim.NewHost(net, "b", 0)
	link := a.AttachNIC(b, 100e9, eventq.Microsecond)
	return net, a, b, link
}

func TestScheduleLinkDownAndRecover(t *testing.T) {
	net, a, b, link := linkFixture()
	delivered := 0
	b.SetHandler(func(p *netsim.Packet) { delivered++ })

	ScheduleLinkDown(net.Sched, link, 10*eventq.Microsecond, 20*eventq.Microsecond)
	send := func(at eventq.Time) {
		net.Sched.Schedule(at, func() {
			a.Send(&netsim.Packet{Type: netsim.Data, Src: a.ID(), Dst: b.ID(), Size: 64})
		})
	}
	send(5 * eventq.Microsecond)  // before failure: delivered
	send(15 * eventq.Microsecond) // during failure: lost
	send(35 * eventq.Microsecond) // after recovery: delivered
	net.Sched.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	if link.Stats().DownDrops != 1 {
		t.Fatalf("down drops = %d, want 1", link.Stats().DownDrops)
	}
}

func TestPermanentLinkDown(t *testing.T) {
	net, a, b, link := linkFixture()
	delivered := 0
	b.SetHandler(func(p *netsim.Packet) { delivered++ })
	ScheduleLinkDown(net.Sched, link, eventq.Microsecond, 0)
	net.Sched.Schedule(2*eventq.Microsecond, func() {
		a.Send(&netsim.Packet{Type: netsim.Data, Src: a.ID(), Dst: b.ID(), Size: 64})
	})
	net.Sched.Run()
	if delivered != 0 || link.Up() {
		t.Fatal("permanent failure did not stick")
	}
}

func TestFlapper(t *testing.T) {
	net, _, _, link := linkFixture()
	f := &Flapper{Link: link, DownFor: 5 * eventq.Microsecond, UpFor: 5 * eventq.Microsecond}
	f.Start(net.Sched, 10*eventq.Microsecond, 100*eventq.Microsecond)

	// Sample the link state over time.
	type sample struct {
		at eventq.Time
		up bool
	}
	var samples []sample
	for at := eventq.Time(0); at <= 120*eventq.Microsecond; at += 2 * eventq.Microsecond {
		at := at
		net.Sched.Schedule(at, func() {
			samples = append(samples, sample{at, link.Up()})
		})
	}
	net.Sched.Run()

	downSeen, upAfterStop := false, true
	for _, s := range samples {
		if s.at < 10*eventq.Microsecond && !s.up {
			t.Fatalf("link down at %v before flapping started", s.at)
		}
		if !s.up {
			downSeen = true
		}
		if s.at > 110*eventq.Microsecond && !s.up {
			upAfterStop = false
		}
	}
	if !downSeen {
		t.Fatal("flapper never took the link down")
	}
	if !upAfterStop {
		t.Fatal("link left down after flapping stopped")
	}
	if !link.Up() {
		t.Fatal("final link state is down")
	}
}

// TestFlapperFasterThanSerialization: with a flap period shorter than one
// serialization time, a back-to-back train loses exactly the packets whose
// serialization *starts* inside a down interval — not those that end in one,
// and not those merely overlapping one.
func TestFlapperFasterThanSerialization(t *testing.T) {
	net, a, b, link := linkFixture()
	ser := netsim.SerializationTime(4096, link.Bandwidth)
	unit := ser / 20 // exact: 4096 B at 100 Gb/s is 327680 ps
	f := &Flapper{Link: link, DownFor: 6 * unit, UpFor: 8 * unit}
	f.Start(net.Sched, unit, 1000*ser)

	const n = 40
	got := make([]bool, n)
	b.SetHandler(func(p *netsim.Packet) { got[p.Seq] = true })
	for i := 0; i < n; i++ {
		a.Send(&netsim.Packet{Type: netsim.Data, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: int64(i)})
	}
	net.Sched.Run()

	lost := 0
	for i := 0; i < n; i++ {
		// Packet i starts at i·ser = 20i units; the link is down over
		// [1+14k, 7+14k) units. 20i-1 is odd, so no start ties with a flap.
		phase := 20*i - 1
		down := phase >= 0 && phase%14 < 6
		if got[i] == down {
			t.Errorf("packet %d (start %d units): delivered=%v, link down at its start=%v", i, 20*i, got[i], down)
		}
		if down {
			lost++
		}
	}
	if lost == 0 || lost == n {
		t.Fatalf("degenerate schedule: %d of %d starts fall in a down interval", lost, n)
	}
	if got := link.Stats().DownDrops; got != uint64(lost) {
		t.Errorf("DownDrops = %d, want %d", got, lost)
	}
}

func TestFlapperInvalidDurationsPanics(t *testing.T) {
	net, _, _, link := linkFixture()
	f := &Flapper{Link: link}
	defer func() {
		if recover() == nil {
			t.Fatal("zero durations did not panic")
		}
	}()
	f.Start(net.Sched, 0, eventq.Second)
}
