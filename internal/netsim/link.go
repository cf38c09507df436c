package netsim

import "uno/internal/eventq"

// LossProcess models stochastic packet loss on a link (random drops,
// Gilbert-Elliott bursts, ...). Implementations live in package failure.
type LossProcess interface {
	// Drop reports whether the packet entering the link at time now is
	// lost in transit.
	Drop(now eventq.Time, p *Packet) bool
}

// LinkStats are cumulative per-link counters.
type LinkStats struct {
	Delivered   uint64
	DownDrops   uint64 // dropped because the link was failed
	RandomDrops uint64 // dropped by the loss process
	Bytes       uint64
}

// Link is a unidirectional link: fixed bandwidth (used by the upstream port
// for serialization) and propagation delay. Build a duplex connection from
// two links.
type Link struct {
	net *Network
	// Bandwidth in bits per second.
	Bandwidth int64
	// Delay is the one-way propagation delay.
	Delay eventq.Time
	// Name for diagnostics, e.g. "dc0.core3→dc0.border0".
	Name string

	to   Node
	up   bool
	loss LossProcess

	// arriveFn is l.arrive bound once at construction, so per-packet
	// delivery scheduling allocates neither an event nor a closure.
	arriveFn func(any)

	// Batched-delivery machinery (Network.BatchDelivery): packets in
	// flight wait in this head-compacted FIFO. Each entry carries the
	// (time, seq) pair reserved when deliver ran, so the execution order —
	// including ties against unrelated same-time events — is exactly the
	// eager path's. Only the FIFO head ever occupies the scheduler: one
	// long-horizon insert per busy period, and successive entries drain
	// either inline (Scheduler.InlineNext, when provably next in the total
	// order) or via a short-horizon rearm of arrTimer.
	arrivals fifo[linkArrival]
	arrTimer *eventq.Timer

	// inFlight counts packets on the link (being serialized onto it or
	// propagating, not yet arrived downstream), in both delivery modes. The
	// invariant layer reconciles it against its own packet accounting.
	// Cross-shard links never use it: their in-transit packets live in the
	// handoff queue (producer side) or as scheduled arrivals in the
	// destination shard, and the invariant layer accounts for them with the
	// export/import counters instead — a shared counter here would be a
	// data race between shard goroutines.
	inFlight int

	// Cross-shard binding (Cluster.BindCross): non-nil xq marks this link
	// as crossing into rxNet's shard. deliver then pushes handoff records
	// into xq instead of scheduling local arrivals, and rxArriveFn runs
	// the downstream half — observer fold and HandlePacket — inside the
	// destination shard, against its clock and digest.
	xq         *handoffQueue
	rxNet      *Network
	rxArriveFn func(any)

	stats LinkStats
}

// linkArrival is one in-flight packet: its arrival time, the insertion
// sequence reserved at deliver time, and the packet itself.
type linkArrival struct {
	at  eventq.Time
	seq uint64
	p   *Packet
}

// newLink wires a link toward node to.
func newLink(net *Network, to Node, bandwidth int64, delay eventq.Time, name string) *Link {
	if bandwidth <= 0 || delay < 0 {
		panic("netsim: invalid link parameters")
	}
	l := &Link{net: net, Bandwidth: bandwidth, Delay: delay, Name: name, to: to, up: true}
	l.arriveFn = l.arrive
	l.rxArriveFn = l.rxArrive
	l.arrTimer = net.Sched.NewTimer(l.arriveHead)
	return l
}

// To returns the downstream node.
func (l *Link) To() Node { return l.to }

// Up reports whether the link is operational.
func (l *Link) Up() bool { return l.up }

// SetUp fails (false) or restores (true) the link. A packet is lost iff the
// link is down, or the loss process says so, when its serialization starts
// (see deliver): one already on the wire when the link fails still arrives,
// and those queued behind it are dropped one by one as each reaches the
// head of the port, which keeps draining at line rate.
func (l *Link) SetUp(up bool) { l.up = up }

// SetLoss attaches (or clears, with nil) a stochastic loss process.
func (l *Link) SetLoss(p LossProcess) { l.loss = p }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// deliver is called by the upstream port when p's serialization, ser long,
// starts: p reaches the downstream node at now + ser + Delay on every path
// (eager, batched FIFO, cross-shard handoff). Link state and the loss
// process are sampled here — the one instant that decides whether p is lost.
func (l *Link) deliver(p *Packet, ser eventq.Time) {
	if !l.up {
		l.stats.DownDrops++
		if l.net.Observer != nil {
			l.net.Observer.PacketDropped(l.Name, DropLink, p)
		}
		l.net.FreePacket(p)
		return
	}
	if l.loss != nil && l.loss.Drop(l.net.Now(), p) {
		l.stats.RandomDrops++
		if l.net.Observer != nil {
			l.net.Observer.PacketDropped(l.Name, DropLoss, p)
		}
		l.net.FreePacket(p)
		return
	}
	l.stats.Delivered++
	l.stats.Bytes += uint64(p.Size)
	at := l.net.Now() + ser + l.Delay
	if l.xq != nil {
		// Cross-shard handoff: copy the packet into the queue (value plus
		// a record-owned Missing buffer) and recycle the original into
		// the source shard's pool; the destination materializes a fresh
		// packet from its own pool at the next window barrier. The drop
		// and loss checks above already ran on the source side, at source
		// time — exactly where the legacy path takes them.
		if hk := l.net.poolHook; hk != nil {
			hk.onExport(p)
		}
		l.xq.push(at, l, p)
		l.net.FreePacket(p)
		return
	}
	l.inFlight++
	if !l.net.batch {
		l.net.Sched.ScheduleArg(at, l.arriveFn, p)
		return
	}
	seq := l.net.Sched.ReserveSeq()
	l.arrivals.push(linkArrival{at: at, seq: seq, p: p})
	if l.arrivals.len() == 1 {
		l.arrTimer.ResetSeq(at, seq)
	}
}

// notifyDelivered reports a delivery to the observer. The common case — a
// bare DigestObserver, which every harness run attaches — is dispatched on
// its concrete type so the digest fold inlines instead of going through
// interface dispatch.
func (l *Link) notifyDelivered(p *Packet) {
	switch o := l.net.Observer.(type) {
	case nil:
	case *DigestObserver:
		o.PacketDelivered(l, p)
	default:
		o.PacketDelivered(l, p)
	}
}

// arrive fires when the packet, serialized and propagated, reaches the
// downstream node. Pre-bound as arriveFn so scheduling it is allocation-
// free (the packet pointer rides in the event's arg slot).
func (l *Link) arrive(x any) {
	p := x.(*Packet)
	l.inFlight--
	l.notifyDelivered(p)
	l.to.HandlePacket(p)
}

// rxArrive fires in the destination shard when a handed-off packet
// finishes propagating across a cross-shard link: the delivery is folded
// into the *destination* shard's observer chain (its digest, its clock —
// the same time and order the unsharded simulation would fold it at), and
// the packet continues into the downstream node. Scheduled by the
// cluster's barrier drain, never by this shard, so it is the only entry
// point through which foreign traffic reaches a shard.
func (l *Link) rxArrive(x any) {
	p := x.(*Packet)
	switch o := l.rxNet.Observer.(type) {
	case nil:
	case *DigestObserver:
		o.PacketDelivered(l, p)
	default:
		o.PacketDelivered(l, p)
	}
	l.to.HandlePacket(p)
}

// arriveHead fires when the batched FIFO's head packet reaches the
// downstream node. After each delivery it asks the scheduler whether the
// next queued arrival is provably the next event in the whole simulation
// (Scheduler.InlineNext with the entry's reserved (time, seq) pair); if so
// it keeps draining inline — no timer insert, cascade, or pop per packet —
// and otherwise it rearms arrTimer with the pair and returns. Inline
// draining cannot jump an arrival ahead of an unrelated event holding an
// intermediate seq: InlineNext compares against the scheduler's true
// minimum and refuses exactly in that case.
//
// The FIFO is popped before HandlePacket runs, and the head pointer is not
// used after it: a HandlePacket cascade can reach deliver synchronously (a
// switch forwards into an idle port, which starts serializing at once) and
// push onto a link FIFO, this one included on a looped topology.
func (l *Link) arriveHead() {
	for {
		l.inFlight--
		// peek+advance instead of pop: reading the entry through the head
		// pointer and nil-ing the packet reference in place avoids the
		// by-value struct copy a generic pop costs (see fifo.advance).
		head := l.arrivals.peek()
		p := head.p
		head.p = nil
		l.arrivals.advance()
		l.notifyDelivered(p)
		l.to.HandlePacket(p)
		if l.arrivals.len() == 0 {
			return
		}
		next := l.arrivals.peek()
		if !l.net.Sched.InlineNext(next.at, next.seq) {
			l.arrTimer.ResetSeq(next.at, next.seq)
			return
		}
	}
}
