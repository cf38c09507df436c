package netsim

import (
	"fmt"

	"uno/internal/eventq"
	"uno/internal/rng"
)

// Network owns the scheduler, the nodes, and the shared deterministic
// randomness of one simulation. All methods must be called from the
// simulation goroutine.
type Network struct {
	Sched *eventq.Scheduler
	Rand  *rng.Rand

	nodes  []Node
	nextID uint64 // packet ID counter (advances by idStep)
	idStep uint64 // packet ID stride: 1 standalone, shard count when clustered

	// shard is this network's index in its netsim.Cluster (0 standalone);
	// cluster is set when the cluster has other shards too, and NodeIDs
	// therefore come from its registry instead of this network's own list.
	shard   int
	cluster *Cluster

	// pool is the packet free list. A simulation is a single-goroutine
	// state machine, so a plain slice suffices — no sync.Pool, no locks.
	pool []*Packet

	// Observer, when non-nil, receives every fabric-level packet event
	// (sends, deliveries, drops) for tracing and telemetry.
	Observer Observer

	// poolHook, when non-nil, sees every AllocPacket/FreePacket call
	// (invariant checking — see AttachInvariants). Costs one nil check per
	// pool operation when absent.
	poolHook poolHook

	// skipRecycleReset is the seeded defect for the invariant layer's
	// mutation smoke test: FreePacket returns packets to the pool without
	// the full reset. Set only from this package's tests.
	skipRecycleReset bool

	// skipBusyAdvance is the transmit hand-off's seeded defect: Port.transmit
	// forgets to advance busyUntil, so packets overlap on the wire.
	skipBusyAdvance bool
}

// poolHook receives packet-pool lifecycle events (invariant checking).
// onExport fires when a packet leaves this shard's fabric through a
// cross-shard link, just before it is freed into the local pool.
type poolHook interface {
	onAlloc(p *Packet)
	onFree(p *Packet)
	onExport(p *Packet)
}

// New creates an empty network with the given random seed.
func New(seed uint64) *Network {
	return &Network{
		Sched:  eventq.New(),
		Rand:   rng.New(seed),
		idStep: 1,
	}
}

// Shard returns this network's shard index within its cluster (0 for a
// standalone network).
func (n *Network) Shard() int { return n.shard }

// Now returns the current simulated time.
func (n *Network) Now() eventq.Time { return n.Sched.Now() }

// register adds a node and returns its id. The shards of a multi-shard
// cluster draw ids from the cluster-wide registry — NodeIDs index a single
// space shared by the routing coord tables and packet Src/Dst fields, so
// they must be unique across shards — while still tracking the node locally
// for the invariant layer's per-shard walks.
func (n *Network) register(node Node) NodeID {
	var id NodeID
	if n.cluster != nil {
		id = n.cluster.register(node)
	} else {
		id = NodeID(len(n.nodes))
	}
	n.nodes = append(n.nodes, node)
	return id
}

// Node returns the node with the given id (cluster-wide in a multi-shard
// cluster: any shard resolves any node, since ids are cluster-unique).
func (n *Network) Node(id NodeID) Node {
	if n.cluster != nil {
		return n.cluster.nodes[id]
	}
	return n.nodes[id]
}

// NumNodes returns the number of nodes registered on this network (this
// shard only, when clustered).
func (n *Network) NumNodes() int { return len(n.nodes) }

// NextPacketID hands out unique packet ids: consecutive integers for a
// standalone network, a shard-strided sequence (shard+1, shard+1+S, ...)
// inside a cluster so ids stay unique across shards without cross-shard
// coordination.
func (n *Network) NextPacketID() uint64 {
	n.nextID += n.idStep
	return n.nextID
}

// AllocPacket returns a zeroed packet, reusing one from the network's free
// list when possible. Packets handed out here are recycled by FreePacket at
// the fabric's terminal points (drop or delivery), so steady-state
// simulation allocates no packets at all. The returned packet is
// indistinguishable from &Packet{} except that the Missing slice may carry
// reusable capacity (always length zero).
func (n *Network) AllocPacket() *Packet {
	var p *Packet
	if k := len(n.pool) - 1; k >= 0 {
		p = n.pool[k]
		n.pool[k] = nil
		n.pool = n.pool[:k]
		p.pooled = true
	} else {
		// Pool miss: carve a slab of packets at once. Misses happen while a
		// run builds its in-flight working set, so a miss predicts more
		// misses; one slab allocation replaces packetSlab individual ones
		// and keeps the working set contiguous for the enqueue/deliver
		// paths that walk packet fields.
		const packetSlab = 64
		slab := make([]Packet, packetSlab)
		for i := range slab[1:] {
			n.pool = append(n.pool, &slab[1+i])
		}
		p = &slab[0]
		p.pooled = true
	}
	if n.poolHook != nil {
		n.poolHook.onAlloc(p)
	}
	return p
}

// FreePacket returns p to the free list. It is a no-op for nil packets, for
// packets not obtained from AllocPacket, and for double frees (freeing
// clears the pooled mark until the next AllocPacket). The reset assigns a
// whole zero Packet value — every field, present and future, is cleared by
// construction — keeping only the Missing backing array (truncated to
// length zero) so NACK buffers are reused too.
//
// Ownership rule: the component holding a packet when it reaches a terminal
// point (the fabric on drops, the Host on delivery, after the handler
// returns) frees it. Handlers and observers must not retain packets beyond
// their callback.
func (n *Network) FreePacket(p *Packet) {
	if n.poolHook != nil {
		n.poolHook.onFree(p)
	}
	if p == nil || !p.pooled {
		return
	}
	if n.skipRecycleReset {
		n.pool = append(n.pool, p)
		return
	}
	missing := p.Missing[:0]
	*p = Packet{Missing: missing}
	n.pool = append(n.pool, p)
}

// PooledPackets returns the current free-list size (telemetry for the
// allocation-budget tests).
func (n *Network) PooledPackets() int { return len(n.pool) }

// countHop increments p's hop count and panics beyond maxHops: a packet
// that long in the fabric means a broken router, a simulator bug.
func countHop(p *Packet) {
	p.hops++
	if p.hops > maxHops {
		panic(fmt.Sprintf("netsim: packet %d (%v flow %d %d→%d) exceeded %d hops: routing loop",
			p.ID, p.Type, p.Flow, p.Src, p.Dst, maxHops))
	}
}

// SerializationTime returns how long size bytes occupy a link of rate bps.
func SerializationTime(size int, bps int64) eventq.Time {
	if bps <= 0 {
		panic("netsim: non-positive link bandwidth")
	}
	// bits * ps-per-second / bps. size ≤ ~64 KiB so the product fits int64.
	return eventq.Time(int64(size) * 8 * int64(eventq.Second) / bps)
}
