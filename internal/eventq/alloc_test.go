package eventq

import "testing"

// The allocation-budget tests below are the eventq half of the PR-2
// performance contract: steady-state scheduling must not allocate. They use
// testing.AllocsPerRun, so they fail loudly if someone reintroduces a
// per-event allocation (closure capture, interface boxing, heap churn).

// TestTimerResetAllocFree: after creation, a Timer's whole rearm/fire cycle
// allocates nothing.
func TestTimerResetAllocFree(t *testing.T) {
	s := New()
	fired := 0
	timer := s.NewTimer(func() { fired++ })
	// Warm the heap slice.
	timer.ResetAfter(1)
	s.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		timer.ResetAfter(3)
		timer.Reset(s.Now() + 5) // rearm while pending: remove + reinsert
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Timer reset/fire cycle allocates %v objects per run, want 0", allocs)
	}
	if fired < 1000 {
		t.Fatalf("timer only fired %d times", fired)
	}
}

// TestScheduleArgAllocFree: fire-and-forget scheduling with a pre-bound
// callback recycles its events, so a schedule→pop cycle is allocation-free
// once the free list is warm.
func TestScheduleArgAllocFree(t *testing.T) {
	s := New()
	var got []any
	sink := func(x any) { got = append(got, x) }
	payload := &struct{ n int }{42} // pointer payloads box into `any` without allocating

	// Warm-up: populate the free list and the result slice capacity.
	for i := 0; i < 64; i++ {
		s.AfterArg(1, sink, payload)
	}
	s.Run()
	got = got[:0]

	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterArg(2, sink, payload)
		s.AfterArg(1, sink, payload)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleArg cycle allocates %v objects per run, want 0", allocs)
	}
	if len(got) < 2000 { // AllocsPerRun adds one warm-up call
		t.Fatalf("callbacks ran %d times, want ≥2000", len(got))
	}
	if s.FreeEvents() == 0 {
		t.Fatal("free list empty after recycled events were popped")
	}
}

// TestScheduleAllocFree: Schedule carries its func value as ScheduleArg's
// argument, so a callback bound once recycles its event like any other and
// a self-rescheduling chain allocates nothing.
func TestScheduleAllocFree(t *testing.T) {
	s := New()
	n := 0
	var tick func()
	tick = func() {
		if n++; n%4 != 0 {
			s.After(1, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, tick)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Schedule chain allocates %v objects per run, want 0", allocs)
	}
	if s.SlabEvents() != 1 {
		t.Fatalf("slab holds %d events, want 1: Schedule events were not recycled", s.SlabEvents())
	}
}
