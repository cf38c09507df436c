package eventq

import (
	"strings"
	"testing"
)

// Timer.Release hands a timer's slab event back to the free list. These
// tests pin the contract the flow lifecycle rests on: a released timer never
// fires, never reports pending, cannot be re-armed until BindTimerArg binds
// it again, and its slot is reused instead of growing the slab.

func TestTimerReleaseWhilePending(t *testing.T) {
	s := New()
	fired := false
	tm := s.NewTimer(func() { fired = true })
	tm.Reset(100)
	if !tm.Pending() || s.Pending() != 1 {
		t.Fatal("setup: timer not armed")
	}
	free := s.FreeEvents()
	tm.Release()
	if tm.Pending() {
		t.Error("released timer reports pending")
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still queued after Release", s.Pending())
	}
	if s.FreeEvents() != free+1 {
		t.Errorf("free list %d, want %d: the event was not returned", s.FreeEvents(), free+1)
	}
	s.Run()
	if fired {
		t.Error("released timer fired")
	}
	// Idempotent, and Cancel on a dead timer is harmless.
	tm.Release()
	tm.Cancel()
	if s.FreeEvents() != free+1 {
		t.Error("second Release returned the event twice")
	}
}

func TestTimerReleaseFromOwnCallback(t *testing.T) {
	s := New()
	fires := 0
	var tm *Timer
	tm = s.NewTimer(func() {
		fires++
		tm.Release()
	})
	tm.Reset(10)
	// The slot the callback frees must be safe to reuse at once.
	other := 0
	s.ScheduleArg(20, func(any) { other++ }, nil)
	s.Run()
	if fires != 1 || other != 1 {
		t.Fatalf("fires=%d other=%d, want 1 and 1", fires, other)
	}
	if tm.Pending() || s.Pending() != 0 {
		t.Error("timer or queue not idle after releasing from the callback")
	}
}

func TestTimerResetAfterReleasePanics(t *testing.T) {
	for name, rearm := range map[string]func(*Timer){
		"Reset":      func(tm *Timer) { tm.Reset(50) },
		"ResetAfter": func(tm *Timer) { tm.ResetAfter(50) },
	} {
		s := New()
		tm := s.NewTimer(func() { t.Errorf("%s: released timer fired", name) })
		tm.Release()
		// The freed slot now belongs to someone else; a silent re-arm would
		// hijack it.
		hits := 0
		s.ScheduleArg(30, func(any) { hits++ }, nil)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "released Timer") {
					t.Errorf("%s on a released timer: recovered %q, want the released-Timer panic", name, msg)
				}
			}()
			rearm(tm)
		}()
		s.Run()
		if hits != 1 || s.Pending() != 0 {
			t.Errorf("%s: free list corrupted: new owner fired %d times, %d pending", name, hits, s.Pending())
		}
	}
}

// TestBindTimerField: a Timer embedded by value in its owner binds in
// place, fires, is released, and binds again — to another callback — for
// the owner's next life, all without a heap allocation of its own.
func TestBindTimerField(t *testing.T) {
	type owner struct {
		timer         Timer
		first, second int
	}
	s := New()
	o := new(owner)
	s.BindTimerArg(&o.timer, func(a any) { a.(*owner).first++ }, o)
	o.timer.Reset(10)
	s.Run()
	if o.first != 1 || o.timer.Pending() {
		t.Fatalf("first binding fired %d times, pending %v; want 1, false", o.first, o.timer.Pending())
	}
	o.timer.Release()
	if o.timer.Pending() || s.FreeEvents() != 1 {
		t.Fatalf("Release left pending=%v, %d free events; want false, 1", o.timer.Pending(), s.FreeEvents())
	}
	s.BindTimerArg(&o.timer, func(a any) { a.(*owner).second++ }, o)
	o.timer.ResetAfter(5)
	s.Run()
	if o.first != 1 || o.second != 1 {
		t.Fatalf("after rebinding: first fired %d, second %d; want 1 and 1", o.first, o.second)
	}
	if n := s.SlabEvents(); n != 1 {
		t.Errorf("slab holds %d events for one timer bound twice, want 1", n)
	}

	var tm Timer
	fire := func(any) {}
	if n := testing.AllocsPerRun(100, func() {
		s.BindTimerArg(&tm, fire, o)
		tm.ResetAfter(1)
		s.Run()
		tm.Release()
	}); n != 0 {
		t.Errorf("bind, fire and release of a Timer field allocate %.1f times", n)
	}
}

// TestBindBoundTimerPanics: binding a timer that still holds its event
// would leak the event and orphan its pending firing, so it panics and the
// first binding keeps working.
func TestBindBoundTimerPanics(t *testing.T) {
	s := New()
	fires := 0
	var tm Timer
	s.BindTimerArg(&tm, func(any) { fires++ }, nil)
	tm.Reset(10)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "bound Timer") {
				t.Errorf("rebinding a bound timer: recovered %q, want the bound-Timer panic", msg)
			}
		}()
		s.BindTimerArg(&tm, func(any) { t.Error("the second binding fired") }, nil)
	}()
	s.Run()
	if fires != 1 || s.Pending() != 0 {
		t.Errorf("first binding fired %d times with %d pending, want 1 and 0", fires, s.Pending())
	}
	// A NewTimer timer is bound too.
	nt := s.NewTimer(func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("binding a NewTimer timer did not panic")
			}
		}()
		s.BindTimerArg(nt, func(any) {}, nil)
	}()
}

// TestTimerReleaseBoundsSlab: create, arm, fire and release ten thousand
// timers one after another — the life of per-flow timers — and the slab must
// stop growing after the first.
func TestTimerReleaseBoundsSlab(t *testing.T) {
	s := New()
	for i := 0; i < 10000; i++ {
		tm := s.NewTimer(func() {})
		tm.ResetAfter(5)
		s.Run()
		tm.Release()
	}
	if n := s.SlabEvents(); n > 1 {
		t.Fatalf("slab grew to %d events for one live timer at a time", n)
	}
}
