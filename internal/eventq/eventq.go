// Package eventq implements the deterministic discrete-event engine that
// drives the whole simulator. It plays the role of the core loop of the
// htsim simulator used by the Uno paper: components schedule callbacks at
// absolute simulated times and the engine executes them in (time, insertion)
// order.
//
// Simulated time is measured in integer picoseconds so that packet
// serialization times on the link speeds used by the paper are exact
// (a 4096 B MTU at 100 Gb/s serializes in exactly 327,680 ps).
//
// The engine is built for a near-zero-allocation steady state. The queue is
// a hierarchical timing wheel (wheel.go, O(1) per operation) with a
// hand-specialized 4-ary min-heap (heap.go) as its far-future overflow
// structure; both honour the same exact (time, seq) contract and neither
// uses container/heap interface dispatch or `any` boxing on push/pop. The
// scheduling contract has two parts:
//
//   - Fire-and-forget events. ScheduleArg/AfterArg take a pre-bound
//     func(any) plus its argument; Schedule/After take a plain func(). None
//     returns a handle, so every such event comes from and returns to the
//     scheduler's free list, and a caller that binds its callback once pays
//     zero allocations per schedule in steady state. Once scheduled, an
//     event fires.
//   - Timer, the one removable event. NewTimer binds a callback once and
//     owns its event until Release; Reset and Cancel move it in and out of
//     the queue in place, making recurring timers (pacing, RTO, epochs, port
//     transmit wake-ups) allocation-free after setup. A component that ends
//     before the simulation does (a completed flow) hands the event back
//     with Release. BindTimerArg binds a Timer the caller owns, such as a
//     struct field, so a per-flow timer costs no allocation of its own and
//     can be bound again once released.
package eventq

import "fmt"

// Time is an absolute simulated time in picoseconds.
type Time int64

// Duration constants. They mirror time.Duration's naming but are simulation
// picoseconds, not wall-clock time.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String formats t with an adaptive unit: exact multiples print as
// integers ("14µs", "2ms"), everything else with three decimals at the
// largest fitting unit ("39.680ms").
func (t Time) String() string {
	if t < 0 {
		return "-" + (-t).String()
	}
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t%Millisecond == 0 && t < 10*Second:
		return fmt.Sprintf("%dms", t/Millisecond)
	case t%Microsecond == 0 && t < 10*Millisecond:
		return fmt.Sprintf("%dµs", t/Microsecond)
	case t%Nanosecond == 0 && t < Microsecond:
		return fmt.Sprintf("%dns", t/Nanosecond)
	}
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Seconds()*1e3)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Seconds()*1e6)
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Seconds()*1e9)
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds returns t expressed in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a scheduled callback. Fire-and-forget events are recycled after
// they pop; a Timer's event is reused in place. Neither escapes the package.
type event struct {
	at  Time
	seq uint64

	// The callback, in the closure-free form: argfn is bound once (e.g. a
	// link's delivery method) and the per-schedule payload rides in arg, so
	// no closure is allocated per packet. Plain func() callbacks
	// (Schedule, Timer) ride the same two words via callFunc with the
	// function value as arg — func values are pointer-shaped, so the `any`
	// conversion does not allocate, and dropping the separate func() field
	// packs event to exactly one 64-byte cache line in the slab.
	argfn func(any)
	arg   any

	index   int32 // heap/overflow position, -1 when not heap-queued
	recycle bool  // return to the free list after popping (not a Timer's)

	// Arena linkage (arena.go): self is this event's slab index, fixed at
	// allocation. bucket is the packed wheel bucket id
	// (level<<wheelLevelBits | slot; noBucket when not wheel-queued), and
	// next/prev chain level ≥1 buckets as slab indices (unused at level 0,
	// where buckets keep sorted key/index arrays instead — wheel.go). An
	// event is in at most one place: bucket != noBucket (wheel bucket) xor
	// index >= 0 (heap or wheel overflow). Index links instead of pointers
	// keep chain walks inside the slab's cache lines and make link stores
	// barrier-free.
	self       int32
	bucket     int32
	next, prev int32
}

// queued reports whether the event is in any queue structure.
func (e *event) queued() bool { return e.bucket != noBucket || e.index >= 0 }

// callFunc adapts a plain func() callback (Schedule, Timer) to the
// argfn+arg calling convention, so event needs no second callback field.
// The assertion is exact-type and branch-predictable; the cost is a couple
// of instructions per firing against eight bytes off every slab slot.
func callFunc(a any) { a.(func())() }

// eventLess orders events by (time, insertion sequence).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler is the event loop. The zero value is ready to use at time 0.
// It is not safe for concurrent use; a simulation is a single-goroutine
// state machine (parallelism in this project comes from running independent
// simulations concurrently, e.g. the 100 reruns of Fig 13A).
type Scheduler struct {
	now      Time
	seq      uint64
	executed uint64

	arena arena   // slab holding every event of this scheduler
	free  []int32 // slab indices of recycled fire-and-forget events

	w *wheel // the timing-wheel queue (with its own overflow heap)

	// Pad to two whole 64-byte cache lines (128 B). The sharded engine
	// allocates one Scheduler per shard back to back and every event writes
	// now/seq/executed/free; at 96 B two shards' hot words shared a line and
	// perm_sharded wall time rose from 0.70 s to 0.83 s (DESIGN §3.7).
	_ [40]byte
}

// New returns a scheduler positioned at time 0.
func New() *Scheduler {
	s := &Scheduler{}
	s.w = newWheel(&s.arena)
	return s
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns the number of events run so far. Useful for progress
// reporting and benchmarks.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events currently queued.
func (s *Scheduler) Pending() int { return s.w.count }

// FreeEvents returns the current size of the event free list (telemetry for
// the allocation-budget tests).
func (s *Scheduler) FreeEvents() int { return len(s.free) }

// SlabEvents returns the number of slab slots ever handed out — the slab's
// high-water mark, since slots are recycled but never returned to the heap
// (telemetry for the flow-lifecycle tests).
func (s *Scheduler) SlabEvents() int { return s.arena.len() }

// ---- event allocation ----

// alloc returns a reset event from the free list, or a fresh slab slot.
// LIFO reuse keeps the steady-state working set on the same few slab cache
// lines.
func (s *Scheduler) alloc() *event {
	if k := len(s.free) - 1; k >= 0 {
		e := s.arena.at(s.free[k])
		s.free = s.free[:k]
		return e
	}
	return s.arena.new()
}

// recycleEvent resets e and returns it to the free list. Popping already
// restored the queue membership fields (index == -1, bucket == noBucket), so
// only the callback and flag fields need clearing — cheaper than rewriting
// the whole struct.
func (s *Scheduler) recycleEvent(e *event) {
	e.argfn, e.arg = nil, nil
	e.recycle = false
	s.free = append(s.free, e.self)
}

// ---- scheduling ----

// checkTime panics on scheduling in the past: it always indicates a
// simulator bug, and silently reordering time would corrupt every
// protocol's RTT estimates.
func (s *Scheduler) checkTime(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("eventq: schedule at %v before now %v", at, s.now))
	}
}

// ScheduleArg runs fn(arg) at absolute time at, fire-and-forget. No handle
// is returned, so the engine recycles the event on pop: callers that bind fn
// once (a stored method value, not a per-call closure) pay zero allocations
// per schedule in steady state.
func (s *Scheduler) ScheduleArg(at Time, fn func(any), arg any) {
	s.checkTime(at)
	e := s.alloc()
	e.at, e.seq, e.argfn, e.arg, e.recycle = at, s.seq, fn, arg, true
	s.seq++
	s.w.insert(e)
}

// AfterArg runs fn(arg) after delay d, fire-and-forget (see ScheduleArg).
func (s *Scheduler) AfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %v", d))
	}
	s.ScheduleArg(s.now+d, fn, arg)
}

// Schedule runs fn at absolute time at, fire-and-forget. The func value
// rides as ScheduleArg's argument, so the event recycles like any other;
// only a fn that is a fresh closure per call allocates.
func (s *Scheduler) Schedule(at Time, fn func()) { s.ScheduleArg(at, callFunc, fn) }

// After runs fn after delay d, fire-and-forget (see Schedule).
func (s *Scheduler) After(d Time, fn func()) { s.AfterArg(d, callFunc, fn) }

// runEvent advances the clock to e and executes its callback. Recyclable
// events return to the free list *before* the callback runs, so a
// steady-state chain (fire → reschedule) reuses a single event object.
func (s *Scheduler) runEvent(e *event) {
	s.now = e.at
	s.executed++
	fn, arg := e.argfn, e.arg
	if e.recycle {
		s.recycleEvent(e)
	}
	fn(arg)
}

// RunUntil executes events in order until the queue is empty or the next
// event is strictly after the deadline. On return, Now() is
// min(deadline, time of last executed event); the clock is advanced to the
// deadline so subsequent scheduling is relative to it.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		next := s.w.peekUntil(deadline)
		if next == nil {
			break
		}
		s.w.popKnown(next)
		s.runEvent(next)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunBefore executes events strictly before the deadline and then advances
// the clock to it: it is RunUntil with an exclusive upper bound. The
// conservative parallel driver (netsim.Cluster) steps every shard with
// RunBefore(barrier) so that events scheduled at exactly the barrier time —
// including cross-shard handoff records inserted while the shards are
// paused — still execute in their home window, after the barrier exchange,
// in the same total order regardless of how many worker goroutines drive
// the shards. The wheel never cascades past deadline-1, so inserts at or
// after the deadline remain valid once the clock lands on it.
func (s *Scheduler) RunBefore(deadline Time) {
	if deadline <= s.now {
		return
	}
	s.RunUntil(deadline - 1)
	s.now = deadline
}

// maxTime is an effectively infinite deadline for unbounded runs.
const maxTime = Time(1<<63 - 1)

// Run executes events until the queue drains. Unlike RunUntil it leaves the
// clock at the last executed event: callers read Now() after a drain as the
// time the simulation went quiet.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Step executes exactly one event and reports whether one was available.
func (s *Scheduler) Step() bool {
	next := s.w.peekUntil(maxTime)
	if next == nil {
		return false
	}
	s.w.popKnown(next)
	s.runEvent(next)
	return true
}

// ---- reusable timers ----

// Timer is a rearmable scheduled callback that allocates only at creation:
// NewTimer binds the callback once, and Reset/Cancel then move the timer's
// embedded event in and out of the heap in place. It is the intended tool
// for every recurring per-component timer (port transmit wake-ups, pacer
// wakeups, RTOs, congestion-control epochs). The zero Timer is unbound;
// BindTimerArg binds it in place, so an owner can embed its timers by value.
//
// A Timer is single-owner, like the rest of a simulation: Reset while
// pending reschedules (the old firing is removed from the heap, never
// lazily skipped), and the callback finds the timer non-pending when it
// runs, so it may Reset itself to build a periodic tick.
type Timer struct {
	s *Scheduler
	e *event // owned until Release (nil afterwards); lives in the scheduler's slab
}

// NewTimer binds fn to a new reusable timer. The timer starts idle; arm it
// with Reset or ResetAfter. The timer's event comes from the scheduler's
// arena (it must: wheel bucket chains link events by slab index) and stays
// the timer's own until Release.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	return s.NewTimerArg(callFunc, fn)
}

// NewTimerArg is NewTimer in the ScheduleArg form: the timer calls fn(arg).
// With fn a package-level function and arg a pointer, creating the timer
// allocates no closure — what a per-flow timer bound to a method would.
func (s *Scheduler) NewTimerArg(fn func(any), arg any) *Timer {
	t := new(Timer)
	s.BindTimerArg(t, fn, arg)
	return t
}

// BindTimerArg binds a caller-owned Timer — typically a struct field — to
// fn(arg), taking its event from the slab as NewTimerArg does. An owner
// that embeds its timer by value and passes itself as arg costs the heap
// nothing per binding. t must be unbound: a zero Timer, or one that was
// Released (a recycled owner binds its timer again for its next life).
// Binding a still-bound timer panics, since its event would leak.
func (s *Scheduler) BindTimerArg(t *Timer, fn func(any), arg any) {
	if t.e != nil {
		panic("eventq: BindTimerArg on a bound Timer")
	}
	t.s, t.e = s, s.alloc()
	t.e.argfn, t.e.arg = fn, arg
}

// Reset (re)schedules the timer to fire at absolute time at. If the timer
// is pending, the previous firing is replaced. The firing order among
// same-time events follows reset order, exactly as if the callback had been
// freshly Scheduled.
func (t *Timer) Reset(at Time) {
	e := t.live()
	t.s.checkTime(at)
	if e.queued() {
		t.s.w.remove(e)
	}
	e.at = at
	e.seq = t.s.seq
	t.s.seq++
	t.s.w.insert(e)
}

// live returns the timer's event, refusing a released (or never bound)
// timer: a released timer's slot may already belong to another timer or a
// packet event, and arming it from here would fire someone else's callback.
func (t *Timer) live() *event {
	if t.e == nil {
		panic("eventq: Reset on an unbound or released Timer")
	}
	return t.e
}

// ResetAfter (re)schedules the timer to fire after delay d.
func (t *Timer) ResetAfter(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %v", d))
	}
	t.Reset(t.s.now + d)
}

// Cancel disarms the timer if pending: the event is removed from the heap
// immediately (no lazy skip), so a Cancel followed by a Reset can never
// resurrect the cancelled firing. Cancelling an idle or released timer is a
// no-op.
func (t *Timer) Cancel() {
	if t.Pending() {
		t.s.w.remove(t.e)
	}
}

// Release cancels the timer and returns its event to the scheduler's free
// list, for owners that end before the simulation does: without it every
// finished flow would pin its timers' slab slots until the run ends. It may
// be called while pending, while idle, or from inside the timer's own
// callback. Afterwards the timer is unbound, like a zero Timer: Pending
// reports false, Cancel and a second Release are no-ops, Reset panics, and
// BindTimerArg may bind it again.
func (t *Timer) Release() {
	if t.e == nil {
		return
	}
	t.Cancel()
	t.s.recycleEvent(t.e)
	t.e = nil
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.e != nil && t.e.queued() }

// Bound reports whether the timer holds a slab event: bound and not yet
// released, armed or not.
func (t *Timer) Bound() bool { return t.e != nil }

// At returns the time of the pending firing (meaningful only while
// Pending).
func (t *Timer) At() Time { return t.e.at }
