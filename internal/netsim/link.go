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

	// inFlight counts packets on the link (being serialized onto it or
	// propagating, not yet arrived downstream). The invariant layer
	// reconciles it against its own packet accounting.
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

// newLink wires a link toward node to.
func newLink(net *Network, to Node, bandwidth int64, delay eventq.Time, name string) *Link {
	if bandwidth <= 0 || delay < 0 {
		panic("netsim: invalid link parameters")
	}
	l := &Link{net: net, Bandwidth: bandwidth, Delay: delay, Name: name, to: to, up: true}
	l.arriveFn = l.arrive
	l.rxArriveFn = l.rxArrive
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
// starts: p reaches the downstream node at now + ser + Delay, whether as a
// local arrival event or a cross-shard handoff record. Link state and the loss
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
	l.net.Sched.ScheduleArg(at, l.arriveFn, p)
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
