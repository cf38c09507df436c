package eventq

import "math/bits"

// Hierarchical timing wheel: the O(1) scheduler backend (the default; see
// kind.go). Nearly all simulator events land within a narrow horizon — link
// serialization (≈328 ns for a 4 KiB MTU at 100 Gb/s) plus propagation
// (1 µs intra-DC, ≈1 ms inter-DC) — the textbook case for a calendar
// queue: a bucketed wheel makes schedule and dispatch constant-time where
// the 4-ary heap pays an O(log n) sift with ~2 M events per simulated
// second in flight.
//
// Geometry. wheelLevels levels of wheelSlots power-of-two-spaced buckets.
// A level-ℓ bucket spans 2^(wheelGranBits + ℓ·wheelLevelBits) ps. The
// level-0 bucket width is chosen well below the minimum event spacing a
// saturated port produces (an ACK serializes in ≈5 ns at 100 Gb/s), so
// level-0 chains stay near one event and the sorted insert is O(1) in
// practice — profiling at 16 ns buckets showed multi-event chains turning
// the insert scan into the top cost of the whole simulator.
//
//	level 0:  64 × 2.05 ns  →  131 ns window   (serialization, pacing)
//	level 1:  64 × 131 ns   →  8.4 µs window   (propagation, intra-DC RTTs)
//	level 2:  64 × 8.4 µs   →  537 µs window   (epochs, queueing delays)
//	level 3:  64 × 537 µs   →  34 ms window    (inter-DC RTTs, RTOs)
//	level 4:  64 × 34 ms    →  2.2 s window    (samplers, phase timers)
//	level 5:  64 × 2.2 s    →  141 s window    (experiment horizons)
//
// Events beyond the top window go to an overflow 4-ary heap and migrate
// into the wheel when the clock reaches them (see popKnown/migrate).
//
// Storage. Buckets are not pointer lists: every event lives in the
// scheduler's slab (arena.go) and buckets refer to events by int32 slab
// index. Level ≥1 buckets are doubly-linked chains whose links ride in
// event.next/prev (as indices); level-0 buckets — where every pop and
// every cascade landing happens — are dense parallel (sort key, index)
// arrays, so the hottest paths scan contiguous words and pop by bumping a
// head offset without touching event linkage at all. The insert/cascade
// path — the hottest block in the post-batch profile, and cache-miss
// bound rather than algorithmic — therefore walks a few dense slab chunks
// instead of chasing *event pointers across scattered heap lines, and
// link stores skip the GC write barrier. The hashed-wheel O(1) bound
// (Varghese & Lauer) only materializes when bucket traversal stays on few
// cache lines; the slab-plus-array layout is what buys that.
//
// Buckets index by absolute time: slot = (at >> levelShift) & slotMask.
// The invariant is that an event lives at the lowest level whose current
// window (the aligned span containing pos that one bucket of the level
// above covers) contains its deadline. advanceTo maintains it: whenever
// the clock enters a new bucket at some level, that bucket's chain
// cascades down to lower levels.
//
// Order preservation — the digest gate. The engine's contract is exact
// (time, seq) total order. Level-0 buckets keep their index arrays sorted
// by (time, seq) (insertion scans from the tail, O(1) for the monotone
// schedules simulations produce); higher-level buckets are unordered FIFO
// chains whose events are re-placed one at a time on cascade, so order is
// re-established at level 0 before anything fires. Overflow ties resolve
// toward the heap: the top window only ever grows forward, so an overflow
// event with the same deadline as a wheel event was necessarily scheduled
// earlier and carries the smaller seq.
const (
	wheelLevelBits = 6
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelGranBits  = 11 // level-0 bucket width: 2^11 ps ≈ 2.05 ns
	wheelLevels    = 6
)

// noBucket is event.bucket's "not wheel-queued" sentinel.
const noBucket = int32(-1)

// wheelShift returns the bit offset of level lvl's slot index within an
// absolute time. Level wheelLevels (one past the top) is the horizon shift.
func wheelShift(lvl int) uint {
	return wheelGranBits + uint(lvl)*wheelLevelBits
}

// wbucket is one level ≥1 wheel bucket: a doubly-linked chain of slab
// indices whose links ride in event.next/prev. Level ≥1 buckets hold
// around one event each under simulation load, so a chain — two stores
// to link, two to unlink, no per-bucket array bookkeeping — is the
// cheapest shape for them; dense arrays only pay at level 0, where every
// pop happens. Level and slot are not stored — they are recovered from
// the packed bucket id an in-bucket event carries (event.bucket).
type wbucket struct {
	head, tail int32 // slab indices; noEvent when the bucket is empty
}

// l0bucket is one level-0 bucket: two parallel dense arrays — sort keys
// and slab indices — sorted by (time, seq) and consumed from head. Level 0
// is where every event is popped from (cascades re-sort everything down
// before it fires), so its bucket shape is the hottest: the pop path is a
// head increment with zero event-field writes, and the sorted-position
// scan reads a contiguous []uint64 without touching event memory at all.
//
// The key packs (time, seq) into 64 bits: the level invariant puts an
// event at level 0 only while its deadline is inside the current aligned
// level-1-bucket window, so all events in one bucket agree on every
// deadline bit above wheelGranBits and the low wheelGranBits bits order
// them; seq takes the remaining 53 bits (a simulation would need ~10^15
// events to overflow them — comfortably unreachable).
// The live entries occupy [head:n] of fixed-length (len == cap) arrays,
// with n tracked explicitly: the insert hot path then writes the key, the
// index, and one integer, where append-style slices would write back two
// three-word slice headers per insert.
type l0bucket struct {
	keys []uint64 // l0key(e), sorted ascending in [head:n]
	idx  []int32  // slab index of the event carrying keys[i]
	head int      // consumed prefix; idx[head] is the bucket minimum
	n    int      // live end; n == head means empty
}

// grow doubles the bucket's arrays (amortized; the larger arrays are kept
// for the wheel's lifetime).
func (b *l0bucket) grow() {
	nk := make([]uint64, 2*len(b.keys))
	copy(nk, b.keys[:b.n])
	b.keys = nk
	ni := make([]int32, 2*len(b.idx))
	copy(ni, b.idx[:b.n])
	b.idx = ni
}

// l0key packs e's (time, seq) into one comparable word (see l0bucket).
func l0key(e *event) uint64 {
	return (uint64(e.at)&(1<<wheelGranBits-1))<<(64-wheelGranBits) | e.seq
}

// wheel is the hierarchical timing-wheel queue backing a Wheel-kind
// Scheduler. All bucket storage is fixed at construction and events live
// in the scheduler's shared slab; steady-state operation allocates nothing
// (level-0 arrays and the overflow heap's slice grow amortized and are
// reused).
type wheel struct {
	a *arena // the owning scheduler's event slab (bucket links index it)

	// pos is the wheel's clock: the deadline of the last popped event (or
	// the zero start). Every queued event is at pos or later, and every
	// future insert is too, so bucket placement relative to pos is stable.
	// pos may lag Scheduler.now (RunUntil advances the scheduler clock
	// without popping); that only delays cascades, never misorders them.
	pos      Time
	count    int
	occupied [wheelLevels]uint64 // per-level bitmap of non-empty slots
	l0       [wheelSlots]l0bucket
	chains   [wheelLevels][wheelSlots]wbucket // levels ≥ 1 ([0] unused)
	overflow eventHeap                        // events past the top-level window, min-heap order
}

func newWheel(a *arena) *wheel {
	w := &wheel{a: a}
	// Pre-size the level-0 arrays by carving capacity windows out of two
	// shared backing slabs: a cold slot growing its arrays mid-run would
	// otherwise count against the steady-state allocation budgets. A
	// bucket outgrowing its window reallocates once, amortized, and keeps
	// the larger array for the wheel's lifetime.
	const l0cap = 16
	keys := make([]uint64, wheelSlots*l0cap)
	idx0 := make([]int32, wheelSlots*l0cap)
	for s := range w.l0 {
		w.l0[s].keys = keys[s*l0cap : (s+1)*l0cap : (s+1)*l0cap]
		w.l0[s].idx = idx0[s*l0cap : (s+1)*l0cap : (s+1)*l0cap]
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		for slot := range w.chains[lvl] {
			w.chains[lvl][slot] = wbucket{head: noEvent, tail: noEvent}
		}
	}
	return w
}

// append links e at the tail of b (level ≥1: unordered, sorted at level 0
// on cascade). c is the caller-hoisted chunk table (see eventChunks).
func (w *wheel) append(c eventChunks, b *wbucket, e *event) {
	e.prev = b.tail
	e.next = noEvent
	if b.tail != noEvent {
		c.at(b.tail).next = e.self
	} else {
		b.head = e.self
	}
	b.tail = e.self
}

// placeL0 inserts entry (key, self) with deadline at into its level-0
// bucket in (time, seq) order, returning the packed bucket id. The
// position scan compares packed keys in a dense array from the tail — the
// common case, monotone nondecreasing schedules, appends after one
// comparison — and out-of-order arrivals shift a few words with memmoves
// instead of relinking a chain. No event memory is touched.
func (w *wheel) placeL0(at Time, key uint64, self int32) int32 {
	slot := int(uint64(at)>>wheelGranBits) & wheelSlotMask
	b := &w.l0[slot]
	n := b.n
	if n == len(b.keys) {
		b.grow()
	}
	if n == b.head || key >= b.keys[n-1] {
		// Append at the tail — the monotone common case — without the
		// memmove machinery of the insert-in-the-middle path.
		b.keys[n] = key
		b.idx[n] = self
	} else {
		i := n - 1
		for i > b.head && key < b.keys[i-1] {
			i--
		}
		copy(b.keys[i+1:n+1], b.keys[i:n])
		b.keys[i] = key
		copy(b.idx[i+1:n+1], b.idx[i:n])
		b.idx[i] = self
	}
	b.n = n + 1
	w.occupied[0] |= 1 << uint(slot)
	return int32(slot)
}

// levelFor returns the wheel level whose current window contains time t
// (relative to w.pos), or wheelLevels if t is past the top window
// (overflow). t must be >= w.pos.
func (w *wheel) levelFor(t Time) int {
	h := bits.Len64(uint64(t) ^ uint64(w.pos))
	if h <= wheelGranBits+wheelLevelBits {
		return 0
	}
	return (h - wheelGranBits - 1) / wheelLevelBits
}

// place puts e into the bucket for its deadline at the given level, which
// must be levelFor(e.at) < wheelLevels, and records the bucket on e. c is
// the caller-hoisted chunk table.
func (w *wheel) place(c eventChunks, e *event, lvl int) {
	if lvl == 0 {
		e.bucket = w.placeL0(e.at, l0key(e), e.self)
		return
	}
	slot := int(uint64(e.at)>>wheelShift(lvl)) & wheelSlotMask
	w.append(c, &w.chains[lvl][slot], e)
	w.occupied[lvl] |= 1 << uint(slot)
	e.bucket = int32(lvl<<wheelLevelBits | slot)
}

// insert enqueues e.
func (w *wheel) insert(e *event) {
	if lvl := w.levelFor(e.at); lvl < wheelLevels {
		w.place(w.a.chunks, e, lvl)
	} else {
		w.overflow.push(e)
	}
	w.count++
}

// unlink detaches e from its bucket (level-0 sorted array or level ≥1
// chain), clearing the occupancy bit if the bucket empties.
func (w *wheel) unlink(e *event) {
	if e.bucket < wheelSlots { // level 0
		w.unlinkL0(e)
		return
	}
	c := w.a.chunks
	lvl := int(e.bucket) >> wheelLevelBits
	slot := int(e.bucket) & wheelSlotMask
	b := &w.chains[lvl][slot]
	if e.prev != noEvent {
		c.at(e.prev).next = e.next
	} else {
		b.head = e.next
	}
	if e.next != noEvent {
		c.at(e.next).prev = e.prev
	} else {
		b.tail = e.prev
	}
	if b.head == noEvent {
		w.occupied[lvl] &^= 1 << uint(slot)
	}
	e.bucket, e.prev, e.next = noBucket, noEvent, noEvent
}

// unlinkL0 removes e from its level-0 bucket. The overwhelmingly common
// case — popping the bucket minimum — is a head increment with no event
// field written but e.bucket itself; removal from the middle
// (Timer.Reset/Cancel before firing) shifts the dense index array down.
func (w *wheel) unlinkL0(e *event) {
	slot := int(e.bucket)
	b := &w.l0[slot]
	if b.idx[b.head] == e.self {
		b.head++
	} else {
		for i := b.head + 1; i < b.n; i++ {
			if b.idx[i] == e.self {
				copy(b.keys[i:b.n-1], b.keys[i+1:b.n])
				copy(b.idx[i:b.n-1], b.idx[i+1:b.n])
				b.n--
				break
			}
		}
	}
	switch {
	case b.head == b.n:
		b.head, b.n = 0, 0
		w.occupied[0] &^= 1 << uint(slot)
	case b.head >= 48:
		// Bound the consumed prefix: a bucket fed and drained at the same
		// deadline would otherwise grow its arrays one slot per pop.
		n := copy(b.keys, b.keys[b.head:b.n])
		copy(b.idx, b.idx[b.head:b.n])
		b.head, b.n = 0, n
	}
	e.bucket = noBucket
}

// remove deletes e wherever it is queued (bucket chain or overflow heap);
// no-op if e is not queued. Used by Timer.Reset/Cancel.
func (w *wheel) remove(e *event) {
	switch {
	case e.bucket != noBucket:
		w.unlink(e)
	case e.index >= 0:
		w.overflow.remove(e)
	default:
		return
	}
	w.count--
}

// peekUntil returns the earliest queued event if its deadline is at or
// before deadline, else nil. It may cascade (advance pos up to the start
// of the bucket holding the minimum, never past deadline), which is safe
// for a caller that then stops at deadline: pos stays at or below every
// future insert. Cascading instead of scanning keeps the peek O(1): an
// unordered higher-level chain never needs a linear minimum scan, because
// the chain is pushed down to sorted level-0 buckets first.
func (w *wheel) peekUntil(deadline Time) *event {
	for {
		var ov *event
		if len(w.overflow) > 0 {
			ov = w.overflow[0]
		}
		lvl, slot := w.scan()
		if lvl < 0 { // wheel empty: the overflow root is the minimum
			if ov == nil || ov.at > deadline {
				return nil
			}
			return ov
		}
		if lvl == 0 {
			b := &w.l0[slot]
			cand := w.a.at(b.idx[b.head])
			if ov != nil && eventLess(ov, cand) {
				cand = ov
			}
			if cand.at > deadline {
				return nil
			}
			return cand
		}
		// The minimum is somewhere in bucket (lvl, slot), whose span starts
		// at bstart. A leftover overflow event at or before bstart precedes
		// everything in the bucket (a tie goes to overflow: the top window
		// only grows forward, so the overflow event was scheduled first and
		// carries the smaller seq).
		bstart := Time(uint64(w.pos)&^(1<<wheelShift(lvl+1)-1) |
			uint64(slot)<<wheelShift(lvl))
		if ov != nil && ov.at <= bstart {
			if ov.at > deadline {
				return nil
			}
			return ov
		}
		if bstart > deadline {
			return nil // everything still queued is after the deadline
		}
		w.advanceTo(bstart) // cascade the bucket down; rescan finer
	}
}

// scan returns the level and slot of the first non-empty bucket in level
// order — the bucket containing the wheel's minimum — or (-1, -1) if the
// wheel proper is empty. Slots below the current position are in the past
// of each level's window and therefore empty.
func (w *wheel) scan() (lvl, slot int) {
	for lvl = 0; lvl < wheelLevels; lvl++ {
		cur := int(uint64(w.pos)>>wheelShift(lvl)) & wheelSlotMask
		if m := w.occupied[lvl] &^ (1<<uint(cur) - 1); m != 0 {
			return lvl, bits.TrailingZeros64(m)
		}
	}
	return -1, -1
}

// advanceTo moves the wheel clock to t (the deadline of an event being
// popped — guaranteed <= every queued deadline and every future insert)
// and cascades: each level whose current bucket changed re-places that
// bucket's chain at lower levels, top-down, so by the time pos sits inside
// a bucket its events have been re-sorted into level 0.
func (w *wheel) advanceTo(t Time) {
	if t <= w.pos {
		return
	}
	diff := uint64(w.pos) ^ uint64(t)
	w.pos = t
	hb := bits.Len64(diff)
	if hb <= wheelGranBits+wheelLevelBits {
		return // still inside the same level-0 window: nothing can cascade
	}
	top := (hb - wheelGranBits - 1) / wheelLevelBits
	if top >= wheelLevels {
		top = wheelLevels - 1
	}
	c := w.a.chunks
	for lvl := top; lvl >= 1; lvl-- {
		slot := int(uint64(t)>>wheelShift(lvl)) & wheelSlotMask
		if w.occupied[lvl]&(1<<uint(slot)) == 0 {
			continue
		}
		b := &w.chains[lvl][slot]
		ei := b.head
		b.head, b.tail = noEvent, noEvent
		w.occupied[lvl] &^= 1 << uint(slot)
		for ei != noEvent {
			e := c.at(ei)
			ei = e.next
			// No need to reset prev/next: level ≥1 re-placement overwrites
			// them, level 0 ignores them, and place updates bucket.
			// Re-placement relative to the new pos always lands below lvl
			// (the event shares pos's high bits down to this bucket) and
			// never in a current slot, so top-down cascading terminates.
			w.place(c, e, w.levelFor(e.at))
		}
	}
}

// popKnown dequeues e, which must be the event peekUntil just returned.
// Popping from overflow migrates any newly in-horizon overflow events into
// the wheel (in heap order, i.e. (time, seq) order) so that after a long
// idle jump — an RTO finally firing, a sampler epoch — subsequent
// operations are O(1) again.
func (w *wheel) popKnown(e *event) {
	w.advanceTo(e.at)
	if e.bucket != noBucket {
		// advanceTo(e.at) cascaded e's bucket down to level 0 (its
		// deadline equals pos, which is level 0 by definition), where the
		// sorted index array makes the global minimum the head; unlink is
		// a head increment.
		w.unlink(e)
	} else {
		w.overflow.popMin()
		w.migrate()
	}
	w.count--
}

// migrate drains overflow events that now fall inside the top-level window
// into the wheel. Heap pops come out in (time, seq) order, and placement
// keeps level-0 buckets sorted, so migration preserves the total order.
func (w *wheel) migrate() {
	horizon := Time((uint64(w.pos)>>wheelShift(wheelLevels) + 1) << wheelShift(wheelLevels))
	c := w.a.chunks
	for len(w.overflow) > 0 && w.overflow[0].at < horizon {
		e := w.overflow.popMin()
		w.place(c, e, w.levelFor(e.at))
	}
}
