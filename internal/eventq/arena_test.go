package eventq

import (
	"testing"
	"unsafe"
)

// Tests for the event slab (arena.go): the layout contracts the wheel's
// index-linked chains and the Timer-owned events depend on.

// TestEventFitsOneCacheLine pins event to exactly 64 bytes. The arena's
// cache story rests on it: chunk arrays are 64-byte aligned (large Go
// allocations are page-aligned), so at 64 bytes every slab slot occupies
// exactly one cache line and a bucket-chain hop touches one line per
// event. Growing the struct past a line silently doubles the traffic of
// the wheel's hottest path — if this fails, shrink or repack before
// shipping.
func TestEventFitsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("event is %d bytes, want exactly 64 (one cache line per slab slot)", got)
	}
}

// TestArenaAddressStability: the *event a Timer owns must stay valid as the
// slab grows — chunks never move. Force growth across several chunk
// boundaries and check every timer's event still resolves to its own slab
// slot.
func TestArenaAddressStability(t *testing.T) {
	s := New()
	const n = 3*arenaChunkSize + 17
	timers := make([]*Timer, 0, n)
	for i := 0; i < n; i++ {
		tm := s.NewTimer(func() {})
		tm.Reset(Time(i + 1))
		timers = append(timers, tm)
	}
	if got := s.arena.len(); got < n {
		t.Fatalf("slab allocated %d events, want >= %d", got, n)
	}
	for i, tm := range timers {
		if got := s.arena.at(tm.e.self); got != tm.e {
			t.Fatalf("timer %d: slab index %d resolves to %p, timer holds %p (chunk moved?)",
				i, tm.e.self, got, tm.e)
		}
		if tm.At() != Time(i+1) {
			t.Fatalf("timer %d: deadline corrupted to %v", i, tm.At())
		}
	}
	s.Run()
}

// TestArenaFreeListReuse: recycled fire-and-forget events must reuse slab
// slots instead of growing the slab — the property that keeps the
// steady-state working set dense (and allocation-free).
func TestArenaFreeListReuse(t *testing.T) {
	s := New()
	fn := func(any) {}
	for i := 0; i < 32; i++ {
		s.AfterArg(1, fn, nil)
	}
	s.Run()
	grown := s.arena.len()
	if grown == 0 {
		t.Fatal("warmup allocated no slab slots")
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 32; i++ {
			s.AfterArg(1, fn, nil)
		}
		s.Run()
	}
	if got := s.arena.len(); got != grown {
		t.Fatalf("slab grew from %d to %d slots under pure recycling", grown, got)
	}
}
