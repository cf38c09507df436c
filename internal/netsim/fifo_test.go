package netsim

import (
	"testing"

	"uno/internal/eventq"
)

// take consumes the head the way the port does: read through peek, then
// advance.
func take[T any](f *fifo[T]) T {
	v := *f.peek()
	f.advance()
	return v
}

// TestFifoBasicOrder: push/peek/advance preserves FIFO order through
// interleaved operation, and the drain reset reclaims the backing array.
func TestFifoBasicOrder(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			f.push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := take(&f); got != want {
				t.Fatalf("take = %d, want %d", got, want)
			}
			want++
		}
	}
	for f.len() > 0 {
		if got := take(&f); got != want {
			t.Fatalf("drain take = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
	if f.head != 0 || len(f.buf) != 0 {
		t.Fatalf("drained fifo not reset: head=%d len(buf)=%d", f.head, len(f.buf))
	}
}

// TestFifoPeekAdvance: the hot-path consume pattern — read through peek,
// overwrite in place, advance — under sustained occupancy, so the dead
// prefix crosses fifoCompactMin and advance's compaction runs, yields
// exactly the pushed sequence.
func TestFifoPeekAdvance(t *testing.T) {
	var f fifo[*int]
	vals := make([]int, 600)
	for i := range vals {
		vals[i] = i
	}
	want := 0
	consume := func() {
		head := f.peek()
		got := *head
		*head = nil
		f.advance()
		if *got != want {
			t.Fatalf("peek+advance = %d, want %d", *got, want)
		}
		want++
	}
	for i := range vals {
		f.push(&vals[i])
		if f.len() >= 16 {
			consume()
		}
		if f.len() != i+1-want {
			t.Fatalf("len = %d after %d pushes and %d takes", f.len(), i+1, want)
		}
	}
	for f.len() > 0 {
		consume()
	}
	if want != len(vals) {
		t.Fatalf("consumed %d entries, pushed %d", want, len(vals))
	}
}

// TestFifoCompaction: once the dead prefix exceeds fifoCompactMin and
// dominates the backing array, the live suffix is copied down, bounding
// the array during a long busy period.
func TestFifoCompaction(t *testing.T) {
	var f fifo[int]
	const n = 4 * fifoCompactMin
	for i := 0; i < n; i++ {
		f.push(i)
	}
	grownCap := cap(f.buf)
	// Consume until the dead prefix dominates: compaction must kick in and
	// reset head to 0 without losing order.
	want := 0
	for f.head != 0 || want == 0 {
		if got := take(&f); got != want {
			t.Fatalf("take = %d, want %d", got, want)
		}
		want++
		if want > n {
			t.Fatal("compaction never reset the head")
		}
	}
	if f.len() != n-want {
		t.Fatalf("len = %d after compaction, want %d", f.len(), n-want)
	}
	if cap(f.buf) != grownCap {
		t.Fatalf("compaction reallocated: cap %d → %d", grownCap, cap(f.buf))
	}
	// Steady-state churn at high occupancy must not grow the array.
	for i := 0; i < 10*n; i++ {
		f.push(n + i)
		if got := take(&f); got != want {
			t.Fatalf("churn take = %d, want %d", got, want)
		}
		want++
	}
	if cap(f.buf) != grownCap {
		t.Fatalf("steady-state churn grew the array: cap %d → %d", grownCap, cap(f.buf))
	}
}

// TestFifoPopZeroesSlot: the port's dequeue clears the vacated slot, so
// pooled packets are not pinned by stale queue references (advance leaves
// that to its caller).
func TestFifoPopZeroesSlot(t *testing.T) {
	const bw = 1e9
	net, a, sw, b := buildPair(t, defaultPort(), bw, eventq.Microsecond)
	b.SetHandler(func(*Packet) {})
	port := sw.Port(0)
	// Packet 1 goes straight onto the wire; 2 and 3 queue behind it.
	for i := 0; i < 3; i++ {
		port.Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096})
	}
	// The transmitter frees and dequeues packet 2; packet 3 keeps the fifo
	// non-empty, so no drain reset hides the slot.
	net.Sched.RunUntil(SerializationTime(4096, bw))
	if port.queue.len() != 1 {
		t.Fatalf("queue holds %d packets, want 1", port.queue.len())
	}
	if port.queue.buf[0] != nil {
		t.Fatal("dequeue left a stale reference in the vacated slot")
	}
}

// TestFifoItems: the invariant checker's physical walk sees exactly the
// live entries in order.
func TestFifoItems(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 10; i++ {
		f.push(i)
	}
	take(&f)
	take(&f)
	it := f.items()
	if len(it) != 8 {
		t.Fatalf("items len = %d, want 8", len(it))
	}
	for i, v := range it {
		if v != i+2 {
			t.Fatalf("items[%d] = %d, want %d", i, v, i+2)
		}
	}
}
