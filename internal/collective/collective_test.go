package collective

import (
	"testing"

	"uno/internal/eventq"
)

// transferRec records one launched transfer.
type transferRec struct {
	src, dst int
	size     int64
	at       eventq.Time
}

// fakeStarter completes every transfer after a fixed delay and records the
// launch order.
type fakeStarter struct {
	sched   *eventq.Scheduler
	delay   eventq.Time
	started []transferRec
}

func (f *fakeStarter) StartFlow(src, dst int, size int64, onDone func()) error {
	f.started = append(f.started, transferRec{src, dst, size, f.sched.Now()})
	f.sched.After(f.delay, onDone)
	return nil
}

func TestRingConfigValidation(t *testing.T) {
	bad := []RingConfig{
		{Members: []int{1}, Bytes: 100},
		{Members: []int{1, 2, 1}, Bytes: 100},
		{Members: []int{1, 2}, Bytes: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	good := RingConfig{Members: []int{3, 7, 9, 11}, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Steps() != 6 {
		t.Fatalf("steps = %d, want 2(N-1)=6", good.Steps())
	}
	if good.ChunkBytes() != 1024 {
		t.Fatalf("chunk = %d", good.ChunkBytes())
	}
	if good.TotalTransfers() != 24 {
		t.Fatalf("transfers = %d", good.TotalTransfers())
	}
}

func TestRingRunsAllTransfers(t *testing.T) {
	sched := eventq.New()
	fs := &fakeStarter{sched: sched, delay: 10 * eventq.Microsecond}
	cfg := RingConfig{Members: []int{0, 1, 2, 3}, Bytes: 4096}
	var elapsed eventq.Time
	ring, err := Start(fs, sched, cfg, func(e eventq.Time) { elapsed = e })
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if ring.Remaining() != 0 {
		t.Fatalf("remaining = %d", ring.Remaining())
	}
	if len(fs.started) != cfg.TotalTransfers() {
		t.Fatalf("transfers = %d, want %d", len(fs.started), cfg.TotalTransfers())
	}
	// With uniform per-step delay d, the dependency chain makes the whole
	// collective take exactly Steps()×d.
	want := eventq.Time(cfg.Steps()) * fs.delay
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	// Every transfer goes to the ring successor with a chunk-sized payload.
	for _, s := range fs.started {
		wantDst := (s.src + 1) % 4
		if s.dst != wantDst || s.size != cfg.ChunkBytes() {
			t.Fatalf("bad transfer %+v", s)
		}
	}
}

func TestRingDependencyOrdering(t *testing.T) {
	// A member must never be more than one step ahead of its predecessor.
	sched := eventq.New()
	fs := &fakeStarter{sched: sched, delay: eventq.Microsecond}
	cfg := RingConfig{Members: []int{0, 1, 2}, Bytes: 300}
	r, err := Start(fs, sched, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for sched.Step() {
		n := len(cfg.Members)
		for j := 0; j < n; j++ {
			pred := (j - 1 + n) % n
			if r.stepOf[j] > r.stepOf[pred]+1 {
				t.Fatalf("member %d at step %d while predecessor at %d",
					j, r.stepOf[j], r.stepOf[pred])
			}
		}
	}
}

func TestRingIdealTime(t *testing.T) {
	cfg := RingConfig{Members: []int{0, 1, 2, 3}, Bytes: 4 << 20}
	// 1 MiB chunks at 100 GB/s (800 Gb/s... use 8e9 bits: 1 MiB at 8 Gb/s
	// = ~1.05 ms per step) plus 1 ms RTT per step, 6 steps.
	got := cfg.IdealTime(8e9, eventq.Millisecond)
	perF := float64(1<<20) * 8 / 8e9 * float64(eventq.Second)
	want := 6 * (eventq.Time(perF) + eventq.Millisecond)
	if got != want {
		t.Fatalf("ideal = %v, want %v", got, want)
	}
}

func TestRingStartRejectsBadConfig(t *testing.T) {
	sched := eventq.New()
	fs := &fakeStarter{sched: sched, delay: eventq.Microsecond}
	if _, err := Start(fs, sched, RingConfig{Members: []int{1}, Bytes: 10}, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}
