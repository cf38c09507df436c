// Package collective implements the communication schedule of the
// gradient synchronization the paper's AI-training workload performs
// (§5.1): a ring Allreduce — a reduce-scatter phase followed by an
// all-gather phase, each of N−1 steps in which every member sends one
// 1/N-sized chunk to its ring successor. Steps are dependency-ordered per
// member: a member starts its step-s transfer only after receiving its
// step-(s−1) chunk, which is what makes the collective's completion time
// sensitive to stragglers (and to the inter-DC cut the ring crosses).
package collective

import (
	"fmt"

	"uno/internal/eventq"
)

// Starter abstracts the transport layer: it launches a transfer of size
// bytes from one host to another and reports completion, or returns why it
// cannot. harness.Sim implements it.
type Starter interface {
	StartFlow(src, dst int, size int64, onDone func()) error
}

// RingConfig describes one ring Allreduce.
type RingConfig struct {
	// Members are the participating host indices in ring order. The ring
	// edge from Members[i] to Members[(i+1)%N] carries all of member i's
	// sends.
	Members []int
	// Bytes is the total gradient size being reduced; each step moves
	// Bytes/N per member.
	Bytes int64
}

// Validate reports configuration errors.
func (c RingConfig) Validate() error {
	if len(c.Members) < 2 {
		return fmt.Errorf("collective: ring needs at least 2 members, got %d", len(c.Members))
	}
	seen := map[int]bool{}
	for _, m := range c.Members {
		if seen[m] {
			return fmt.Errorf("collective: duplicate member %d", m)
		}
		seen[m] = true
	}
	if c.Bytes <= 0 {
		return fmt.Errorf("collective: non-positive gradient size %d", c.Bytes)
	}
	return nil
}

// Steps returns the number of communication steps (2(N−1)).
func (c RingConfig) Steps() int { return 2 * (len(c.Members) - 1) }

// ChunkBytes returns the per-step transfer size per member.
func (c RingConfig) ChunkBytes() int64 {
	n := int64(len(c.Members))
	b := c.Bytes / n
	if b <= 0 {
		b = 1
	}
	return b
}

// TotalTransfers returns the number of point-to-point transfers the
// collective issues (N members × 2(N−1) steps).
func (c RingConfig) TotalTransfers() int { return len(c.Members) * c.Steps() }

// Ring is one in-flight ring Allreduce.
type Ring struct {
	cfg     RingConfig
	starter Starter
	sched   *eventq.Scheduler

	// stepOf[i] is the next step member i will start; doneAt records
	// completion.
	stepOf     []int
	running    []bool
	remaining  int
	start      eventq.Time
	onComplete func(elapsed eventq.Time)

	// Transfers counts launched point-to-point sends (telemetry).
	Transfers int

	err error // the first transfer the starter refused
}

// Start launches the collective; onComplete fires once every member has
// finished all 2(N−1) steps. Step 0 starts here, so a starter that refuses
// transfers (a harness.Sim with more than one shard) fails Start with its
// error.
func Start(starter Starter, sched *eventq.Scheduler, cfg RingConfig,
	onComplete func(elapsed eventq.Time)) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Ring{
		cfg:        cfg,
		starter:    starter,
		sched:      sched,
		stepOf:     make([]int, len(cfg.Members)),
		running:    make([]bool, len(cfg.Members)),
		remaining:  cfg.TotalTransfers(),
		start:      sched.Now(),
		onComplete: onComplete,
	}
	// Step 0 has no dependency: every member fires immediately.
	for i := range cfg.Members {
		r.launch(i)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// Err returns the first error the starter returned for a transfer: at a
// later step, where no caller is there to return it to, a refused transfer
// leaves the collective incomplete, and this says why.
func (r *Ring) Err() error { return r.err }

// launch starts member i's next step if its dependency is met.
func (r *Ring) launch(i int) {
	n := len(r.cfg.Members)
	step := r.stepOf[i]
	if step >= r.cfg.Steps() || r.running[i] {
		return
	}
	r.running[i] = true
	src := r.cfg.Members[i]
	dst := r.cfg.Members[(i+1)%n]
	r.Transfers++
	err := r.starter.StartFlow(src, dst, r.cfg.ChunkBytes(), func() {
		// Member i finished sending its step; its *successor* has now
		// received the chunk it needs for the next step.
		r.running[i] = false
		r.stepOf[i]++
		r.remaining--
		succ := (i + 1) % n
		// The successor may start its next step once it has received this
		// chunk AND finished its own current send; member i itself can
		// proceed once it receives from its predecessor (tracked by the
		// predecessor's completion callback reaching here for succ == i).
		r.tryAdvance(succ)
		r.tryAdvance(i)
		if r.remaining == 0 && r.onComplete != nil {
			r.onComplete(r.sched.Now() - r.start)
		}
	})
	if err != nil && r.err == nil {
		r.err = err
	}
}

// tryAdvance starts member j's next step when its dependency (the
// predecessor having completed at least as many steps) holds.
func (r *Ring) tryAdvance(j int) {
	n := len(r.cfg.Members)
	pred := (j - 1 + n) % n
	// Member j may run step s only once its predecessor finished step s
	// (j has then received the chunk step s+1 operates on). Step 0 is
	// unconditional (own data).
	if r.stepOf[j] == 0 || r.stepOf[pred] >= r.stepOf[j] {
		r.launch(j)
	}
}

// Remaining returns the number of outstanding transfers.
func (r *Ring) Remaining() int { return r.remaining }

// IdealTime lower-bounds the collective on a fabric where every ring edge
// has at least edgeBps of bandwidth and at most maxRTT of base round-trip
// latency: 2(N−1) serialized steps of chunk transfer plus per-step latency.
func (c RingConfig) IdealTime(edgeBps int64, maxRTT eventq.Time) eventq.Time {
	per := eventq.Time(float64(c.ChunkBytes()) * 8 / float64(edgeBps) * float64(eventq.Second))
	return eventq.Time(c.Steps()) * (per + maxRTT)
}
