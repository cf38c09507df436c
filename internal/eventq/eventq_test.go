package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"uno/internal/rng"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{2 * Millisecond, "2ms"},
		{14 * Microsecond, "14µs"},
		{327 * Nanosecond, "327ns"},
		{Picosecond, "1ps"},
		{1500 * Nanosecond, "1.500µs"},
		{39680063342 * Picosecond, "39.680ms"},
		{1234567 * Microsecond, "1.235s"},
		{-2 * Millisecond, "-2ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Fatalf("2ms = %v s, want 0.002", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestTiesRunInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order[%d] = %d; same-time events must run FIFO", i, v)
		}
	}
}

func TestNowDuringCallback(t *testing.T) {
	s := New()
	var at Time
	s.Schedule(42, func() { at = s.Now() })
	s.Run()
	if at != 42 {
		t.Fatalf("Now() during callback = %v, want 42", at)
	}
}

func TestSchedulingFromCallback(t *testing.T) {
	s := New()
	var hits []Time
	s.Schedule(10, func() {
		hits = append(hits, s.Now())
		s.After(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(50, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.Schedule(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(12)
	if len(ran) != 2 || ran[0] != 5 || ran[1] != 10 {
		t.Fatalf("RunUntil(12) ran %v, want [5 10]", ran)
	}
	if s.Now() != 12 {
		t.Fatalf("Now() = %v after RunUntil(12)", s.Now())
	}
	// Events at exactly the deadline must run.
	s.Schedule(15, func() {}) // duplicate time is fine
	s.RunUntil(15)
	found := false
	for _, v := range ran {
		if v == 15 {
			found = true
		}
	}
	if !found {
		t.Fatal("event at exactly the deadline did not run")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("empty RunUntil left clock at %v", s.Now())
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.Schedule(1, func() { n++ })
	s.Schedule(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestPendingAndExecutedCounts(t *testing.T) {
	s := New()
	for i := Time(1); i <= 5; i++ {
		s.Schedule(i, func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 || s.Executed() != 5 {
		t.Fatalf("after run: pending=%d executed=%d", s.Pending(), s.Executed())
	}
}

// Property: for any multiset of times, events fire in sorted order with
// stable tie-breaking.
func TestOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			s.Schedule(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		sorted := make([]Time, len(fired))
		copy(sorted, fired)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	r := rng.New(1)
	times := make([]Time, 1024)
	for i := range times {
		times[i] = Time(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, at := range times {
			s.Schedule(at, func() {})
		}
		s.Run()
	}
}

func BenchmarkHotLoop(b *testing.B) {
	// Self-rescheduling event: the pattern of a busy link transmitter.
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(100, tick)
		}
	}
	s.Schedule(0, tick)
	b.ResetTimer()
	s.Run()
}
