package netsim

// Conservative parallel-DES: a Cluster partitions one simulation into
// per-shard Networks (in the harness: one shard per datacenter), each with
// its own Scheduler, arena, packet pool, and RNG stream, and steps them in
// lockstep lookahead windows whose width is the minimum delay of any
// cross-shard link. Packets that traverse a cross-shard link leave their
// home fabric as timestamped handoff records in a per-direction SPSC queue
// and are re-materialized into the destination shard's packet pool at the
// next window barrier — always at or after the destination's clock, so no
// shard ever observes time moving backwards.
//
// Why the digest is worker-count-independent: the partition, the absolute
// barrier grid (multiples of the lookahead), the strict window bound
// (Scheduler.RunBefore), and the drain order (ascending source shard, FIFO
// within a queue) are all fixed at construction. Each shard's event
// stream — and therefore its scheduler seq assignment and its per-shard
// digest fold — depends only on its own initial state and on the records
// drained into it at barriers, both of which are identical whether the
// shards run on one goroutine or many. The only sanctioned communication
// is the handoff queue, written while its reader is parked at a barrier;
// everything else is shard-private.
//
// What the lookahead forbids: any cross-shard interaction faster than the
// minimum cross-link delay. A zero-delay cross link would need its packets
// visible in the destination within the current window, which the barrier
// protocol cannot provide — BindCross rejects it. Same-shard links of any
// delay are unaffected.

import (
	"fmt"
	"sync"

	"uno/internal/eventq"
)

// handoffRecord is one cross-shard packet in transit: its arrival time at
// the destination node, the cross link it traveled, and a value copy of
// the packet (with a record-owned Missing buffer, reused across uses of
// the slot so steady-state handoff allocates nothing).
type handoffRecord struct {
	at   eventq.Time
	link *Link
	pkt  Packet
}

// handoffQueue carries records for one (src shard → dst shard) direction.
// It is an SPSC queue realized as a plain slice: the producer is the
// source shard's goroutine during a window, the consumer is the barrier
// drain, and the window barrier is the happens-before edge between them —
// no locks, no atomics, no concurrent access by construction.
type handoffQueue struct {
	src, dst int
	recs     []handoffRecord
	n        int // live records; recs[n:] hold reusable Missing capacity

	pushed  uint64 // records ever pushed (producer-owned)
	drained uint64 // records ever drained (consumer-owned)
}

// push appends a record, reusing the slot's Missing capacity.
func (q *handoffQueue) push(at eventq.Time, l *Link, p *Packet) {
	if q.n == len(q.recs) {
		q.recs = append(q.recs, handoffRecord{})
	}
	r := &q.recs[q.n]
	q.n++
	missing := r.pkt.Missing[:0]
	r.at, r.link = at, l
	r.pkt = *p
	r.pkt.Missing = append(missing, p.Missing...)
	q.pushed++
}

// Cluster owns the shards of one partitioned simulation and the handoff
// queues between them. Like a single Network, a Cluster is driven from one
// coordinating goroutine; RunUntil may fan each window out to worker
// goroutines, but construction, scheduling, and result collection happen
// only between windows.
type Cluster struct {
	shards  []*Network
	workers int

	// lookahead is the minimum cross-link delay — the window width. Zero
	// until the first BindCross; a cluster with no cross links — one shard,
	// for instance — degenerates to independent shards stepped once per
	// RunUntil: no barrier grid, nothing to drain.
	lookahead eventq.Time

	// queues[src*S+dst] is the src→dst handoff queue, nil until a cross
	// link in that direction is bound.
	queues []*handoffQueue

	// nodes is the cluster-wide registry: NodeIDs must be unique across
	// shards (the routing coord tables and packet Src/Dst fields index a
	// single ID space), so the Networks of a multi-shard cluster register
	// here. An only shard's own node list is that registry already.
	nodes []Node

	now eventq.Time

	// drained counts records materialized over the cluster's lifetime;
	// dropEvery, when positive, silently discards every dropEvery-th
	// record at drain time — the seeded defect for the invariant layer's
	// mutation smoke test (the cross-shard analogue of skipRecycleReset).
	// Set only from this package's tests.
	drained   uint64
	dropEvery uint64

	// checkers, when non-nil, are the per-shard invariant checkers wired
	// by AttachClusterInvariants; the drain reports imports to them.
	checkers []*InvariantChecker

	wg sync.WaitGroup
}

// NewCluster creates nshards empty shard Networks driven by up to workers
// goroutines (clamped to [1, nshards]). Shard 0's RNG stream is seeded
// exactly like netsim.New(seed); shard i gets an independent stream via a
// golden-ratio offset, so per-shard entropy draws are decorrelated but
// fully determined by (seed, shard).
func NewCluster(seed uint64, nshards, workers int) *Cluster {
	if nshards < 1 {
		panic("netsim: NewCluster needs at least one shard")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > nshards {
		workers = nshards
	}
	cl := &Cluster{workers: workers, queues: make([]*handoffQueue, nshards*nshards)}
	for i := 0; i < nshards; i++ {
		n := New(seed + 0x9e3779b97f4a7c15*uint64(i))
		n.shard = i
		if nshards > 1 {
			n.cluster = cl
		}
		// Per-shard packet-ID stride: shard i hands out i+1, i+1+S, ...,
		// so IDs stay globally unique (S = 1 reproduces a standalone
		// network's 1, 2, 3, ... sequence exactly). IDs are diagnostics
		// only — the digest never folds them — but unique IDs keep
		// cross-shard traces and loop-panic messages unambiguous.
		n.idStep = uint64(nshards)
		n.nextID = uint64(i+1) - uint64(nshards) // first += idStep yields i+1
		cl.shards = append(cl.shards, n)
	}
	return cl
}

// Shards returns the number of shards.
func (cl *Cluster) Shards() int { return len(cl.shards) }

// Shard returns shard i's Network.
func (cl *Cluster) Shard(i int) *Network { return cl.shards[i] }

// Now returns the cluster clock: the last barrier every shard has reached
// (after Run on a cluster without cross links, the latest shard clock).
func (cl *Cluster) Now() eventq.Time { return cl.now }

// Lookahead returns the window width (the minimum cross-link delay), or 0
// if no cross link is bound.
func (cl *Cluster) Lookahead() eventq.Time { return cl.lookahead }

// Executed returns the total events executed across all shards.
func (cl *Cluster) Executed() uint64 {
	var sum uint64
	for _, n := range cl.shards {
		sum += n.Sched.Executed()
	}
	return sum
}

// register assigns a cluster-unique NodeID (called by Network.register on
// clustered shards; setup time only).
func (cl *Cluster) register(node Node) NodeID {
	id := NodeID(len(cl.nodes))
	cl.nodes = append(cl.nodes, node)
	return id
}

// BindCross marks l — a link whose upstream port lives on one shard and
// whose downstream node lives on rx — as a cross-shard link: deliveries
// become handoff records instead of local arrival events. The link's
// delay must be positive; it (lower-)bounds the lookahead window.
func (cl *Cluster) BindCross(l *Link, rx *Network) {
	if l.net == rx {
		panic("netsim: BindCross on an intra-shard link")
	}
	if l.Delay <= 0 {
		panic(fmt.Sprintf("netsim: cross-shard link %s needs positive delay for lookahead", l.Name))
	}
	src, dst := l.net.shard, rx.shard
	q := cl.queues[src*len(cl.shards)+dst]
	if q == nil {
		q = &handoffQueue{src: src, dst: dst}
		cl.queues[src*len(cl.shards)+dst] = q
	}
	l.xq = q
	l.rxNet = rx
	if cl.lookahead == 0 || l.Delay < cl.lookahead {
		cl.lookahead = l.Delay
	}
}

// drainQueues materializes every queued handoff record into its
// destination shard. Called only between windows (every shard parked at
// the barrier), in a fixed order — ascending source shard, then ascending
// destination shard, FIFO within a queue — so destination-side event seqs
// are assigned identically under any worker count. Record times are
// >= barrier by the lookahead argument, so insertion never violates the
// destination scheduler's monotonicity check.
func (cl *Cluster) drainQueues() {
	for _, q := range cl.queues {
		if q == nil || q.n == 0 {
			continue
		}
		for i := 0; i < q.n; i++ {
			r := &q.recs[i]
			q.drained++
			cl.drained++
			if cl.dropEvery > 0 && cl.drained%cl.dropEvery == 0 {
				r.link = nil // seeded defect: the record vanishes unaccounted
				continue
			}
			l := r.link
			dst := l.rxNet
			p := dst.AllocPacket()
			missing := p.Missing[:0]
			*p = r.pkt
			p.pooled = true
			p.Missing = append(missing, r.pkt.Missing...)
			if cl.checkers != nil {
				if c := cl.checkers[dst.shard]; c != nil {
					c.noteImport(p)
				}
			}
			dst.Sched.ScheduleArg(r.at, l.rxArriveFn, p)
			r.link = nil
		}
		q.n = 0
	}
}

// stepWindow runs every shard up to the barrier b — strictly before it
// when inclusive is false (interior windows), inclusive of events at b for
// the final window of a RunUntil call (matching Scheduler.RunUntil's
// contract at the caller's deadline) — then drains the handoff queues.
func (cl *Cluster) stepWindow(b eventq.Time, inclusive bool) {
	run := func(n *Network) {
		if inclusive {
			n.Sched.RunUntil(b)
		} else {
			n.Sched.RunBefore(b)
		}
	}
	if cl.workers <= 1 {
		for _, n := range cl.shards {
			run(n)
		}
	} else {
		// Round-robin shards over workers; worker 0 is the caller. The
		// WaitGroup completes the barrier: every cross-window interaction
		// (queue drain, scheduling, invariant sweeps) happens after Wait
		// and before the next window's goroutines start, giving the SPSC
		// queues their happens-before edges.
		for w := 1; w < cl.workers; w++ {
			cl.wg.Add(1)
			go func(w int) {
				defer cl.wg.Done()
				for i := w; i < len(cl.shards); i += cl.workers {
					run(cl.shards[i])
				}
			}(w)
		}
		for i := 0; i < len(cl.shards); i += cl.workers {
			run(cl.shards[i])
		}
		cl.wg.Wait()
	}
	cl.drainQueues()
	cl.now = b
}

// RunUntil advances every shard to the deadline in lookahead windows. The
// barrier grid is absolute — multiples of the lookahead — so barrier
// placement (and with it every seq assignment and digest fold) is a
// function of the deadline sequence alone, not of the worker count. The
// final window is inclusive of events at exactly the deadline, like
// Scheduler.RunUntil; a deadline-straddling handoff record (arrival at
// exactly the deadline, drained after the final window) executes at the
// start of the next call, identically under any worker count.
func (cl *Cluster) RunUntil(deadline eventq.Time) {
	if cl.lookahead > 0 {
		for {
			b := (cl.now/cl.lookahead + 1) * cl.lookahead
			if b >= deadline {
				break
			}
			cl.stepWindow(b, false)
		}
	}
	if deadline >= cl.now {
		cl.stepWindow(deadline, true)
	}
}

// Run advances windows until no shard has pending events and no handoff
// record is queued (the cluster analogue of Scheduler.Run). Workloads
// whose completed flows cancel their timers quiesce; a workload with a
// self-rescheduling timer never does, exactly like Scheduler.Run. Without
// cross links there is no barrier to stop at: every shard runs dry, and the
// cluster clock lands where the last one stopped.
func (cl *Cluster) Run() {
	if cl.lookahead == 0 {
		for _, n := range cl.shards {
			n.Sched.Run()
			cl.now = max(cl.now, n.Now())
		}
		return
	}
	for cl.Pending() > 0 {
		cl.stepWindow((cl.now/cl.lookahead+1)*cl.lookahead, false)
	}
}

// Pending returns the total scheduled events across shards plus undrained
// handoff records (coordinator context only).
func (cl *Cluster) Pending() int {
	total := 0
	for _, n := range cl.shards {
		total += n.Sched.Pending()
	}
	for _, q := range cl.queues {
		if q != nil {
			total += q.n
		}
	}
	return total
}
