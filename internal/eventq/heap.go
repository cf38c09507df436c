package eventq

// eventHeap is a hand-specialized 4-ary min-heap over *event ordered by
// eventLess — no container/heap interface dispatch, no `any` boxing on
// push/pop. It is the wheel's far-future overflow structure (RTO timers,
// samplers, experiment phase changes — anything beyond the wheel horizon);
// events inside the horizon live in wheel buckets instead (wheel.go).
//
// A 4-ary layout halves the tree depth of a binary heap: pops do a few more
// comparisons per level but far fewer cache-missing levels, which wins for
// the event mixes simulations produce (mostly near-future pushes).
//
// Each queued event stores its heap position in event.index (-1 when not in
// the heap), enabling O(log n) removal from arbitrary positions (Timer
// rescheduling).
type eventHeap []*event

// siftUp places e at index i, bubbling it toward the root.
func (h eventHeap) siftUp(i int, e *event) {
	for i > 0 {
		parent := (i - 1) >> 2
		pe := h[parent]
		if !eventLess(e, pe) {
			break
		}
		h[i] = pe
		pe.index = int32(i)
		i = parent
	}
	h[i] = e
	e.index = int32(i)
}

// siftDown places e at index i, sinking it below smaller children.
func (h eventHeap) siftDown(i int, e *event) {
	n := len(h)
	for {
		child := i<<2 + 1
		if child >= n {
			break
		}
		min := child
		me := h[child]
		end := child + 4
		if end > n {
			end = n
		}
		for j := child + 1; j < end; j++ {
			if ce := h[j]; eventLess(ce, me) {
				min, me = j, ce
			}
		}
		if !eventLess(me, e) {
			break
		}
		h[i] = me
		me.index = int32(i)
		i = min
	}
	h[i] = e
	e.index = int32(i)
}

// push inserts e into the heap.
func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	h.siftUp(len(*h)-1, e)
}

// popMin removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) popMin() *event {
	s := *h
	e := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		(*h).siftDown(0, last)
	}
	e.index = -1
	return e
}

// remove deletes e from an arbitrary heap position (Timer rescheduling).
// It is a no-op if e is not in the heap.
func (h *eventHeap) remove(e *event) {
	i := int(e.index)
	if i < 0 {
		return
	}
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		(*h).siftDown(i, last)
		if int(last.index) == i {
			(*h).siftUp(i, last)
		}
	}
	e.index = -1
}
