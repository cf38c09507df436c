package eventq

// Event arena: every event of a Scheduler lives in one per-scheduler slab,
// and all queue membership (wheel bucket arrays, the recycle free list)
// refers to events by their int32 slab index instead of by pointer. Two
// effects pay for the indirection:
//
//   - Cache density. The wheel's insert/cascade path used to walk bucket
//     chains of individually heap-allocated events, chasing pointers
//     across scattered heap lines (the dominant cost in the post-batch
//     profile) with every hop serially dependent on the previous load.
//     With the slab, buckets hold (key, index) entries in their own dense
//     arrays (wheel.go): traversal streams contiguous words, and the slab
//     keeps the steady-state working set — the same few recycled events,
//     reused in LIFO order — packed into a handful of chunks.
//   - Write-barrier elimination. Enqueuing and dequeuing an event used to
//     store several pointers (bucket head/tail, chain next/prev), each
//     paying a GC write barrier; int32 index stores pay none, and the
//     event struct itself drops from five pointer words of linkage to
//     zero.
//
// The slab grows in fixed-size chunks (arenaChunkSize events each) whose
// backing arrays never move once allocated, so the *event a Timer holds
// stays valid across growth. Growth allocates one chunk per arenaChunkSize
// events; the steady state recycles through Scheduler.free and allocates
// nothing.
//
// Events are never returned to the Go heap: fire-and-forget events cycle
// through the free list after they pop, and a Timer's event joins it at
// Release. A scheduler's slab high-water mark is therefore its peak count
// of pending events plus live Timers, which for a simulation is bounded by
// the component count, not the event count.

// noEvent is the nil of slab indices: an empty chain link or list head.
const noEvent = int32(-1)

const (
	arenaChunkBits = 10 // 1024 events × 64 B = 64 KiB per chunk
	arenaChunkSize = 1 << arenaChunkBits
	arenaChunkMask = arenaChunkSize - 1
)

// eventChunks is the slab's chunk table. Chunks are pointers to fixed-size
// arrays, not slices: `chunk[i&arenaChunkMask]` then needs no bounds check
// (the mask proves the index in range), so at() compiles to one bounds
// check on the chunk table plus two dependent loads. Wheel hot loops copy
// the table into a local (`c := w.a.chunks`) once per operation: a local
// slice header stays in registers across the event stores a chain walk
// performs, where re-reading it through the arena pointer would not.
type eventChunks []*[arenaChunkSize]event

// at returns the event at slab index i. i must have been returned by new
// (via event.self or a stored link).
func (c eventChunks) at(i int32) *event {
	return &c[i>>arenaChunkBits][i&arenaChunkMask]
}

// arena is the chunked event slab. The zero value is ready to use.
type arena struct {
	chunks eventChunks
	n      int32 // events allocated so far == next fresh index
}

// at returns the event at slab index i (un-hoisted convenience form).
func (a *arena) at(i int32) *event { return a.chunks.at(i) }

// new hands out the next fresh slab slot, initialized to an unqueued
// event. The address is stable for the arena's lifetime: chunk arrays
// never move.
func (a *arena) new() *event {
	if int(a.n>>arenaChunkBits) == len(a.chunks) {
		a.chunks = append(a.chunks, new([arenaChunkSize]event))
	}
	e := &a.chunks[a.n>>arenaChunkBits][a.n&arenaChunkMask]
	e.self = a.n
	e.index = -1
	e.bucket = noBucket
	e.next, e.prev = noEvent, noEvent
	a.n++
	return e
}

// len returns the number of events ever allocated (slab telemetry).
func (a *arena) len() int { return int(a.n) }
