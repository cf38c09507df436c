package netsim

// fifo is the head-compacted queue behind each port's one queue: a tuned
// grow/compact policy kept apart from the port's admission logic.
//
// The layout is a plain slice plus a dead-prefix index. push appends; a
// consumer reads the head through peek, zeroes the slot (so pooled packets
// are not pinned by stale references) and calls advance to bump the head. When the queue drains the slice resets
// to its full capacity, and when the dead prefix both exceeds
// fifoCompactMin slots and dominates the backing array, the live suffix
// is copied down, so a long busy period cannot grow the backing array
// without bound while steady-state operation stays allocation- and
// copy-free.
type fifo[T any] struct {
	buf  []T
	head int
}

// fifoCompactMin is the dead-prefix size below which compaction is never
// attempted; small queues recycle their space via the drain reset instead.
const fifoCompactMin = 64

// len returns the number of queued entries.
func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// push appends v to the tail.
func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

// peek returns a pointer to the head entry (valid until the next push or
// advance). The caller must ensure the fifo is non-empty.
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

// advance discards the head entry, for callers that already consumed it
// through peek. It does not zero the slot — a caller holding live
// references through the peek pointer must nil them out itself first.
// Splitting consume (peek) from discard (advance) keeps both halves
// inlinable even for struct element types, where a by-value pop compiles
// to an out-of-line dictionary call that shows up in event loop profiles.
func (f *fifo[T]) advance() {
	f.head++
	if f.head == len(f.buf) || f.head > fifoCompactMin {
		f.popSlow()
	}
}

// popSlow reclaims dead prefix space after an advance: a drained fifo
// resets to the start of its backing array, and a dominating dead prefix
// (beyond fifoCompactMin) is compacted away. Kept out of line so advance
// itself stays under the inlining budget.
//
//go:noinline
func (f *fifo[T]) popSlow() {
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
}

// items returns the live entries as a slice view (for the invariant
// checker's physical walks; not part of the hot path).
func (f *fifo[T]) items() []T { return f.buf[f.head:] }
