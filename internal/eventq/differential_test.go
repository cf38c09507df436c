package eventq

import (
	"testing"

	"uno/internal/rng"
)

// Differential tests: the wheel and the naive reference model (model_test.go)
// implement one contract — events fire in exact (time, seq) order — so any
// randomized operation script must produce identical fire sequences on both.
// This is the test half of the digest gate: if it holds for adversarial
// interleavings, the golden digests in internal/simtest cannot be moved by a
// wheel bug.

// firing records one callback execution: the clock when it ran plus the
// identity of what fired.
type firing struct {
	at Time
	id int
}

// runScript drives a fresh scheduler (real wheel or reference model, per
// the factory) through the deterministic operation script derived from seed
// and returns the fire sequence. All randomness comes from the seeded rng,
// and no decision depends on scheduler internals, so both implementations
// see the same script.
func runScript(t *testing.T, mk func() scriptSched, seed uint64, ops int) []firing {
	t.Helper()
	r := rng.New(seed)
	s := mk()

	var fired []firing
	nextID := 0

	// A pool of reusable timers; ids offset so they never collide with
	// Schedule ids.
	const timerBase = 1 << 30
	timers := make([]scriptTimer, 8)
	for i := range timers {
		i := i
		timers[i] = s.NewTimer(func() {
			fired = append(fired, firing{s.Now(), timerBase + i})
		})
	}

	// Delay distribution exercising every placement class: same-tick
	// bursts (0), level-0 (few ns), mid-level (µs..ms), top-level (s),
	// and far-future overflow (beyond the wheel's 2^47 ps ≈ 141 s top
	// window).
	randDelay := func() Time {
		switch r.Intn(10) {
		case 0:
			return 0 // same-tick burst
		case 1, 2, 3:
			return Time(r.Intn(4096)) // within or near one level-0 bucket
		case 4, 5, 6:
			return Time(r.Intn(1 << 30)) // mid levels (≈ up to 1 ms)
		case 7, 8:
			return Time(r.Intn(1 << 44)) // upper levels (≈ up to 17 s)
		default:
			return Time(1<<47) + Time(r.Intn(1<<48)) // overflow territory
		}
	}

	schedule := func() {
		id := nextID
		nextID++
		s.Schedule(s.Now()+randDelay(), func() {
			fired = append(fired, firing{s.Now(), id})
		})
	}

	schedule()
	for op := 0; op < ops; op++ {
		switch p := r.Float64(); {
		case p < 0.35:
			schedule()
		case p < 0.45: // burst: several events on one tick
			at := s.Now() + randDelay()
			for n := r.Intn(4) + 2; n > 0; n-- {
				id := nextID
				nextID++
				s.Schedule(at, func() {
					fired = append(fired, firing{s.Now(), id})
				})
			}
		case p < 0.7:
			timers[r.Intn(len(timers))].ResetAfter(randDelay())
		case p < 0.75:
			timers[r.Intn(len(timers))].Cancel()
		case p < 0.9:
			s.Step()
		default:
			s.RunUntil(s.Now() + randDelay())
		}
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events pending after drain", seed, s.Pending())
	}
	return fired
}

// TestWheelModelDifferential asserts the wheel and the reference model fire
// identical sequences for randomized Schedule/Timer/Step/RunUntil
// scripts that include same-tick bursts and far-future overflow events.
func TestWheelModelDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7, 42, 365, 90125, 271828, 3141592} {
		model := runScript(t, func() scriptSched { return &refSched{} }, seed, 4000)
		wheel := runScript(t, func() scriptSched { return realSched{New()} }, seed, 4000)
		if len(model) != len(wheel) {
			t.Fatalf("seed %d: model fired %d events, wheel %d", seed, len(model), len(wheel))
		}
		if len(model) == 0 {
			t.Fatalf("seed %d: vacuous script", seed)
		}
		for i := range model {
			if model[i] != wheel[i] {
				t.Fatalf("seed %d: firing %d differs: model (at=%d id=%d) vs wheel (at=%d id=%d)",
					seed, i, model[i].at, model[i].id, wheel[i].at, wheel[i].id)
			}
		}
	}
}
