package eventq

import (
	"math/rand"
	"testing"
)

// Property test for the free-list and Timer machinery: under long random
// interleavings of Schedule, ScheduleArg, Timer.Reset, Timer.Cancel and
// draining, no callback may ever fire stale — a one-shot fires exactly once
// at its time, and a Timer fires only at the time of its most recent Reset,
// exactly once per arming. Event recycling makes this interesting: a bug
// that recycled an event still queued, or left a removed Timer in the heap,
// shows up here as an unexpected or mistimed fire.

// timerModel mirrors what the scheduler should believe about one Timer.
type timerModel struct {
	t     *Timer
	armed bool // model: a fire is outstanding
	at    Time // model: when it must fire
	fires int
}

type oneshotModel struct {
	at    Time
	fired bool
}

func TestRandomInterleavingNoStaleFires(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()

		timers := make([]*timerModel, 8)
		for i := range timers {
			tm := &timerModel{}
			tm.t = s.NewTimer(func() {
				if !tm.armed {
					t.Fatalf("seed %d: timer fired while model says disarmed (stale fire)", seed)
				}
				if s.Now() != tm.at {
					t.Fatalf("seed %d: timer fired at %d, model expects %d (stale schedule survived a Reset)",
						seed, s.Now(), tm.at)
				}
				tm.armed = false
				tm.fires++
			})
			timers[i] = tm
		}

		var shots []*oneshotModel
		argFires := 0
		fire := func(m *oneshotModel) {
			if m.fired {
				t.Fatalf("seed %d: one-shot fired twice", seed)
			}
			if s.Now() != m.at {
				t.Fatalf("seed %d: one-shot fired at %d, want %d", seed, s.Now(), m.at)
			}
			m.fired = true
		}
		argFn := func(x any) {
			fire(x.(*oneshotModel))
			argFires++
		}

		for op := 0; op < 4000; op++ {
			switch rng.Intn(10) {
			case 0, 1: // arm or rearm a random timer
				tm := timers[rng.Intn(len(timers))]
				tm.at = s.Now() + Time(1+rng.Intn(50))
				tm.armed = true
				tm.t.Reset(tm.at)
			case 2: // cancel a random timer
				tm := timers[rng.Intn(len(timers))]
				tm.t.Cancel()
				tm.armed = false
			case 3, 4: // one-shot closure
				m := &oneshotModel{at: s.Now() + Time(1+rng.Intn(50))}
				s.Schedule(m.at, func() { fire(m) })
				shots = append(shots, m)
			case 5, 6: // pre-bound callback carrying its model as arg
				m := &oneshotModel{at: s.Now() + Time(1+rng.Intn(50))}
				s.ScheduleArg(m.at, argFn, m)
				shots = append(shots, m)
			case 7, 8: // run a few events
				for i := 0; i < 5 && s.Pending() > 0; i++ {
					s.Step()
				}
			case 9: // advance time without necessarily draining everything
				s.RunUntil(s.Now() + Time(rng.Intn(30)))
			}
		}
		s.Run() // drain

		for i, tm := range timers {
			if tm.armed {
				t.Fatalf("seed %d: timer %d still armed after drain (lost fire)", seed, i)
			}
			if tm.t.Pending() {
				t.Fatalf("seed %d: timer %d pending after drain", seed, i)
			}
		}
		for i, m := range shots {
			if !m.fired {
				t.Fatalf("seed %d: one-shot %d never fired", seed, i)
			}
		}
		if argFires == 0 {
			t.Fatalf("seed %d: property test never exercised recycled events", seed)
		}
	}
}

// TestTimerRearmInsideCallback: the common transport pattern — a timer that
// re-arms itself from its own callback — must keep firing at the model's
// cadence with no allocation of fresh events.
func TestTimerRearmInsideCallback(t *testing.T) {
	s := New()
	var fires []Time
	var timer *Timer
	timer = s.NewTimer(func() {
		fires = append(fires, s.Now())
		if len(fires) < 5 {
			timer.ResetAfter(10)
		}
	})
	timer.Reset(10)
	s.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

// TestTimerResetSupersedes: Reset while pending replaces the old deadline
// entirely — the old one must not fire.
func TestTimerResetSupersedes(t *testing.T) {
	s := New()
	var fires []Time
	timer := s.NewTimer(func() { fires = append(fires, s.Now()) })
	timer.Reset(10)
	timer.Reset(100) // push out
	timer.Reset(50)  // pull in
	s.Run()
	if len(fires) != 1 || fires[0] != 50 {
		t.Fatalf("fires = %v, want [50]", fires)
	}
}
