package eventq

// refSched is a deliberately naive reference model of the Scheduler
// contract: an unsorted slice scanned linearly for the (time, seq) minimum
// on every pop. It replaces the retired 4-ary heap backend as the
// differential-testing oracle — being ~20 lines of obviously-correct code
// with no shared structure (no arena, no buckets, no overflow migration),
// any divergence from the wheel is a wheel bug, not a shared one.
//
// Semantics mirrored exactly:
//   - events fire in (at, seq) order; seq is assigned at schedule time;
//   - timer Cancel/Reset remove the pending firing immediately;
//   - RunUntil executes events with at <= deadline, then clocks forward
//     to the deadline;
//   - scheduling in the past panics.

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refSched struct {
	now Time
	seq uint64
	q   []*refEvent
}

func (s *refSched) Now() Time    { return s.now }
func (s *refSched) Pending() int { return len(s.q) }

// push queues fn at (at, next seq) from the model's private seq counter.
func (s *refSched) push(at Time, fn func()) *refEvent {
	if at < s.now {
		panic("refSched: schedule in the past")
	}
	e := &refEvent{at: at, seq: s.seq, fn: fn}
	s.seq++
	s.q = append(s.q, e)
	return e
}

func (s *refSched) Schedule(at Time, fn func()) { s.push(at, fn) }

func (s *refSched) ScheduleArg(at Time, fn func(any), arg any) {
	s.push(at, func() { fn(arg) })
}

func (s *refSched) AfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic("refSched: negative delay")
	}
	s.ScheduleArg(s.now+d, fn, arg)
}

// popMin removes and returns the (at, seq)-minimal event, nil when empty.
func (s *refSched) popMin() *refEvent {
	if len(s.q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(s.q); i++ {
		e, b := s.q[i], s.q[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	e := s.q[best]
	s.q = append(s.q[:best], s.q[best+1:]...)
	return e
}

func (s *refSched) runEvent(e *refEvent) {
	s.now = e.at
	e.fn()
}

func (s *refSched) Step() bool {
	e := s.popMin()
	if e == nil {
		return false
	}
	s.runEvent(e)
	return true
}

func (s *refSched) RunUntil(deadline Time) {
	for len(s.q) > 0 {
		e := s.popMin()
		if e.at > deadline {
			s.q = append(s.q, e) // put it back; order is recomputed per pop
			break
		}
		s.runEvent(e)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

func (s *refSched) Run() {
	for s.Step() {
	}
}

// refTimer models Timer: Cancel and Reset remove the pending firing from
// the queue immediately (never lazily), and Reset assigns a fresh seq.
type refTimer struct {
	s  *refSched
	fn func()
	e  *refEvent // pending firing, nil when idle
}

func (s *refSched) NewTimer(fn func()) scriptTimer { return &refTimer{s: s, fn: fn} }

func (t *refTimer) removePending() {
	if t.e == nil {
		return
	}
	for i, e := range t.s.q {
		if e == t.e {
			t.s.q = append(t.s.q[:i], t.s.q[i+1:]...)
			break
		}
	}
	t.e = nil
}

func (t *refTimer) Reset(at Time) {
	t.removePending()
	t.e = t.s.push(at, func() {
		t.e = nil // non-pending while the callback runs
		t.fn()
	})
}

func (t *refTimer) ResetAfter(d Time) {
	if d < 0 {
		panic("refSched: negative delay")
	}
	t.Reset(t.s.now + d)
}

func (t *refTimer) Cancel()       { t.removePending() }
func (t *refTimer) Pending() bool { return t.e != nil }

// Rebind models Release followed by binding the same callback again: to
// the queue that is a Cancel.
func (t *refTimer) Rebind() { t.removePending() }

// ---- the shared script-facing interface ----

// scriptTimer is the least common denominator of *Timer and *refTimer.
type scriptTimer interface {
	Reset(Time)
	ResetAfter(Time)
	Cancel()
	Pending() bool
	Rebind() // release, then bind the same Timer to its callback again
}

// scriptSched lets one operation script drive either the real Scheduler or
// the refSched model. Both differential tests and the fuzz target use it.
type scriptSched interface {
	Now() Time
	Pending() int
	Schedule(at Time, fn func())
	ScheduleArg(at Time, fn func(any), arg any)
	AfterArg(d Time, fn func(any), arg any)
	NewTimer(fn func()) scriptTimer
	Step() bool
	RunUntil(Time)
	Run()
}

// realSched adapts *Scheduler to scriptSched (only NewTimer, whose concrete
// return type differs, needs wrapping).
type realSched struct{ *Scheduler }

func (r realSched) NewTimer(fn func()) scriptTimer {
	return &realTimer{r.Scheduler.NewTimer(fn), fn}
}

// realTimer is a *Timer that remembers its callback, so Rebind can bind the
// same Timer value to it again through BindTimerArg.
type realTimer struct {
	*Timer
	fn func()
}

func (t *realTimer) Rebind() {
	s := t.s
	t.Release()
	s.BindTimerArg(t.Timer, callFunc, t.fn)
}
