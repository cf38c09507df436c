package netsim

// Runtime invariant checking: AttachInvariants hooks an InvariantChecker
// into a Network's observer chain and packet-pool hooks, and the checker
// then asserts, while any simulation runs, the structural invariants that
// the retired heap-backend differential tests used to witness indirectly:
//
//	(a) per-flow packet conservation — every packet injected into the
//	    fabric is eventually delivered, dropped, or still in flight, and
//	    the three accounts reconcile against a *physical walk* of port
//	    queues and link in-flight counters (a packet in service is on its
//	    link from the moment serialization starts);
//	(b) queue bookkeeping — a port's incremental queuedBytes always equals
//	    the sum of its queued packet sizes, data-packet occupancy never
//	    exceeds QueueCap (control packets may exceed it only via
//	    ControlBypass), phantom-queue occupancy stays within [0, Cap] with a
//	    monotone drain clock, and the transmitter state is coherent: the
//	    transmit timer is armed exactly when packets are queued, never in
//	    the past, and busyUntil never moves backwards;
//	(c) event-time monotonicity — fabric events never observe time moving
//	    backwards, no packet is delivered before it was sent, and a link
//	    carries one packet at a time: consecutive arrivals are at least the
//	    later packet's serialization time apart;
//	(d) packet-pool discipline — no packet is freed twice, observed after
//	    being freed, or handed out by AllocPacket without the full recycle
//	    reset;
//	(e) erasure-coding block accounting — a receiver may declare a block
//	    decodable (AckBlockOK) only after the fabric terminally delivered
//	    at least as many distinct block packets as data shards were
//	    injected, every block of a completed flow must have been declared
//	    decodable, and (when ECData is configured) a block with a full
//	    data-shard count delivered must not be left undeclared.
//
// The checker lives in package netsim on purpose: the checks recompute
// state from unexported structures (queue slices, arena-free link FIFOs,
// phantom internals), so they cannot degenerate into tautologies over the
// same counters the simulator maintains. Checkers allocate freely (maps,
// violation records) — they are test/CI instrumentation, not part of the
// allocation-free hot path, which pays only a nil check per event when no
// checker is attached. A checker never mutates packets and never draws
// from the Network's RNG, so attaching one cannot move a golden digest.

import (
	"fmt"
	"reflect"

	"uno/internal/eventq"
)

// Violation records one invariant breach observed during a run.
type Violation struct {
	At    eventq.Time
	Check string // "conservation", "queue", "time", "pool", "ec"
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Check, v.Msg)
}

// maxViolations caps recorded violations; a single root cause (e.g. a
// skipped recycle reset) can otherwise flood millions of records.
const maxViolations = 32

// flowAccount tracks per-flow conservation counters from observer events.
type flowAccount struct {
	injected  int64
	delivered int64 // terminal deliveries (link into a Host)
	dropped   int64
	exported  int64 // handed off to another shard via a cross-shard link
	imported  int64 // materialized here from another shard's handoff
	done      bool  // an ACK with FlowDone was observed
}

// pktInfo is the checker's view of one packet currently in the fabric.
type pktInfo struct {
	flow   FlowID
	sentAt eventq.Time
}

type blockKey struct {
	flow  FlowID
	block int32
}

// blockAccount tracks erasure-coding accounting for one (flow, block).
type blockAccount struct {
	sentData  map[int16]struct{} // distinct data (non-parity) indices injected
	delivered map[int16]struct{} // distinct indices terminally delivered untrimmed
	drops     int64
	trims     int64
	ok        bool // an AckBlockOK for this block was observed
}

// InvariantChecker implements Observer plus the Network pool hooks. Build
// one with AttachInvariants; read results with Violations or Check.
type InvariantChecker struct {
	net *Network
	// Next receives every event after the checker (observer chaining, same
	// convention as DigestObserver.Next).
	Next Observer

	// ECData, when non-zero, is the scenario's erasure-coding data-shard
	// count: Check then also flags blocks that received a full data-shard
	// set but were never declared decodable.
	ECData int

	violations []Violation
	truncated  bool

	events    uint64
	lastEvent eventq.Time

	flows  map[FlowID]*flowAccount
	live   map[*Packet]pktInfo
	blocks map[blockKey]*blockAccount

	pooledOut map[*Packet]struct{} // handed out by AllocPacket, not yet freed
	freed     map[*Packet]struct{} // freed, not yet re-allocated

	busyUntil   map[*Port]eventq.Time // last busyUntil seen per port
	lastArrival map[*Link]eventq.Time // last delivery seen per link

	// Cross-shard accounting: importPending holds packets materialized
	// from a handoff record whose arrival event has not fired yet — live
	// in this shard but propagating on a link the physical walk cannot
	// see (the cross link and its counters belong to the source shard).
	// crossPending is its size, reconciled in Check.
	importPending map[*Packet]struct{}
	crossPending  int
}

// AttachInvariants wires a fresh checker into n: the current observer (if
// any) keeps receiving every event through the checker's Next field, and
// the packet pool reports every AllocPacket/FreePacket to the checker.
// Attach before traffic flows; call Check (or read Violations) at the end
// of the run.
func AttachInvariants(n *Network) *InvariantChecker {
	c := &InvariantChecker{
		net:           n,
		Next:          n.Observer,
		flows:         make(map[FlowID]*flowAccount),
		live:          make(map[*Packet]pktInfo),
		blocks:        make(map[blockKey]*blockAccount),
		pooledOut:     make(map[*Packet]struct{}),
		freed:         make(map[*Packet]struct{}),
		busyUntil:     make(map[*Port]eventq.Time),
		lastArrival:   make(map[*Link]eventq.Time),
		importPending: make(map[*Packet]struct{}),
	}
	n.Observer = c
	n.poolHook = c
	return c
}

// Violations returns everything recorded so far (without the final sweep
// that Check performs).
func (c *InvariantChecker) Violations() []Violation { return c.violations }

// Events returns how many observer events the checker has seen — a guard
// against accidentally asserting over a checker that observed nothing.
func (c *InvariantChecker) Events() uint64 { return c.events }

func (c *InvariantChecker) violate(check, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.truncated = true
		return
	}
	c.violations = append(c.violations, Violation{
		At: c.net.Now(), Check: check, Msg: fmt.Sprintf(format, args...),
	})
}

func (c *InvariantChecker) flow(id FlowID) *flowAccount {
	fa := c.flows[id]
	if fa == nil {
		fa = &flowAccount{}
		c.flows[id] = fa
	}
	return fa
}

func (c *InvariantChecker) block(id FlowID, b int32) *blockAccount {
	k := blockKey{id, b}
	ba := c.blocks[k]
	if ba == nil {
		ba = &blockAccount{
			sentData:  make(map[int16]struct{}),
			delivered: make(map[int16]struct{}),
		}
		c.blocks[k] = ba
	}
	return ba
}

// event runs the per-event checks shared by all three observer callbacks:
// fabric time must be monotone, and every 16th event the full queue state
// is re-verified (every event would be O(nodes) per packet; sampling keeps
// the suite fast while still interleaving with traffic).
func (c *InvariantChecker) event() {
	now := c.net.Now()
	if now < c.lastEvent {
		c.violate("time", "fabric event at %v after event at %v", now, c.lastEvent)
	}
	c.lastEvent = now
	c.events++
	if c.events%16 == 0 {
		c.checkQueues()
	}
}

func (c *InvariantChecker) checkNotFreed(p *Packet, what string) {
	if _, ok := c.freed[p]; ok {
		c.violate("pool", "freed packet observed in %s event (id=%d type=%v flow=%d)",
			what, p.ID, p.Type, p.Flow)
	}
}

// PacketSent implements Observer.
func (c *InvariantChecker) PacketSent(h *Host, p *Packet) {
	c.event()
	c.checkNotFreed(p, "send")
	if info, ok := c.live[p]; ok {
		c.violate("conservation", "packet sent while already in fabric (flow %d, first sent %v)",
			info.flow, info.sentAt)
	}
	c.live[p] = pktInfo{flow: p.Flow, sentAt: c.net.Now()}
	c.flow(p.Flow).injected++
	if p.Type == Data && p.Block >= 0 && !p.IsParity {
		c.block(p.Flow, p.Block).sentData[p.BlockIdx] = struct{}{}
	}
	if p.Type == Ack {
		if p.FlowDone {
			c.flow(p.Flow).done = true
		}
		if p.AckBlock >= 0 && p.AckBlockOK {
			ba := c.block(p.Flow, p.AckBlock)
			if !ba.ok {
				ba.ok = true
				// The completing arrival was terminally delivered before this
				// ACK was constructed, so the fabric must already account for
				// at least a decodable set: never fewer distinct deliveries
				// than distinct data shards injected.
				if len(ba.delivered) < len(ba.sentData) {
					c.violate("ec", "flow %d block %d declared decodable with %d distinct deliveries < %d data shards sent",
						p.Flow, p.AckBlock, len(ba.delivered), len(ba.sentData))
				}
			}
		}
	}
	if c.Next != nil {
		c.Next.PacketSent(h, p)
	}
}

// PacketDelivered implements Observer.
func (c *InvariantChecker) PacketDelivered(l *Link, p *Packet) {
	c.event()
	c.checkNotFreed(p, "delivery")
	now := c.net.Now()
	info, known := c.live[p]
	if !known {
		if p.Type == Cnm {
			// CNMs are injected at switches (no PacketSent event); register
			// them on first sighting.
			info = pktInfo{flow: p.Flow, sentAt: now}
			c.live[p] = info
			c.flow(p.Flow).injected++
		} else {
			c.violate("conservation", "packet delivered without a send event (id=%d type=%v flow=%d)",
				p.ID, p.Type, p.Flow)
			info = pktInfo{flow: p.Flow, sentAt: now}
			c.live[p] = info
		}
	}
	if _, pend := c.importPending[p]; pend {
		// First delivery event of an imported packet: its cross-link
		// propagation is over, so it stops counting against crossPending.
		delete(c.importPending, p)
		c.crossPending--
	}
	if info.flow != p.Flow {
		c.violate("conservation", "packet changed flow in flight: sent on %d, delivered on %d", info.flow, p.Flow)
	}
	if now < info.sentAt {
		c.violate("time", "packet delivered at %v before its send at %v", now, info.sentAt)
	}
	if last, seen := c.lastArrival[l]; seen && now-last < SerializationTime(p.Size, l.Bandwidth) {
		c.violate("time", "link %s: arrivals at %v and %v closer than the %d-byte packet's serialization time",
			l.Name, last, now, p.Size)
	}
	c.lastArrival[l] = now
	if _, terminal := l.To().(*Host); terminal {
		delete(c.live, p)
		c.flow(p.Flow).delivered++
		if p.Type == Data && p.Block >= 0 {
			ba := c.block(p.Flow, p.Block)
			if p.Trimmed {
				ba.trims++
			} else {
				ba.delivered[p.BlockIdx] = struct{}{}
			}
		}
	}
	if c.Next != nil {
		c.Next.PacketDelivered(l, p)
	}
}

// PacketDropped implements Observer.
func (c *InvariantChecker) PacketDropped(where string, reason DropReason, p *Packet) {
	c.event()
	c.checkNotFreed(p, "drop")
	if _, known := c.live[p]; !known {
		if p.Type == Cnm {
			c.flow(p.Flow).injected++
		} else {
			c.violate("conservation", "packet dropped without a send event (id=%d type=%v flow=%d at %s)",
				p.ID, p.Type, p.Flow, where)
		}
	}
	if _, pend := c.importPending[p]; pend {
		delete(c.importPending, p)
		c.crossPending--
	}
	delete(c.live, p)
	c.flow(p.Flow).dropped++
	if p.Type == Data && p.Block >= 0 {
		c.block(p.Flow, p.Block).drops++
	}
	// Drops correlate with full queues — the interesting moment for the
	// occupancy invariants — so re-verify unconditionally.
	c.checkQueues()
	if c.Next != nil {
		c.Next.PacketDropped(where, reason, p)
	}
}

// onAlloc implements the pool hook: every packet handed out must be a full
// zero value (modulo the retained Missing capacity and the pooled mark).
func (c *InvariantChecker) onAlloc(p *Packet) {
	delete(c.freed, p)
	if _, ok := c.pooledOut[p]; ok {
		c.violate("pool", "AllocPacket returned a packet that is already checked out")
	}
	c.pooledOut[p] = struct{}{}
	if len(p.Missing) != 0 {
		c.violate("pool", "recycled packet has non-truncated Missing (len %d)", len(p.Missing))
		return
	}
	tmp := *p
	tmp.pooled = false
	tmp.Missing = nil
	if !reflect.DeepEqual(tmp, Packet{}) {
		c.violate("pool", "recycled packet not fully reset: %+v", tmp)
	}
}

// onFree implements the pool hook: freeing clears the checked-out mark;
// a second free of the same packet (now unpooled) is the double-free case
// FreePacket silently ignores but the checker flags.
func (c *InvariantChecker) onFree(p *Packet) {
	if p == nil {
		return
	}
	if !p.pooled {
		if _, ok := c.freed[p]; ok {
			c.violate("pool", "packet double-freed (id=%d type=%v flow=%d)", p.ID, p.Type, p.Flow)
		}
		return
	}
	delete(c.pooledOut, p)
	c.freed[p] = struct{}{}
	if info, inFabric := c.live[p]; inFabric {
		c.violate("pool", "packet freed while still in fabric (flow %d, sent %v)", info.flow, info.sentAt)
	}
}

// onExport implements the pool hook: a packet leaves this shard through a
// cross-shard link. It must be live here (it was sent or imported), and it
// stops being this checker's responsibility — the destination shard's
// noteImport picks it up, and the cluster-level check reconciles the two.
func (c *InvariantChecker) onExport(p *Packet) {
	if _, live := c.live[p]; !live {
		c.violate("conservation", "packet handed off without a send event (id=%d type=%v flow=%d)",
			p.ID, p.Type, p.Flow)
	}
	if _, pend := c.importPending[p]; pend {
		delete(c.importPending, p)
		c.crossPending--
	}
	delete(c.live, p)
	c.flow(p.Flow).exported++
}

// noteImport registers a packet materialized from another shard's handoff
// record (called by the cluster's barrier drain, before the arrival event
// is scheduled). The packet is live from this moment; until its arrival
// event fires it counts against crossPending, the stand-in for the
// source-owned link in-flight counter the physical walk cannot read.
func (c *InvariantChecker) noteImport(p *Packet) {
	if _, dup := c.live[p]; dup {
		c.violate("conservation", "imported packet already in fabric (id=%d flow=%d)", p.ID, p.Flow)
	}
	c.live[p] = pktInfo{flow: p.Flow, sentAt: c.net.Now()}
	c.flow(p.Flow).imported++
	c.importPending[p] = struct{}{}
	c.crossPending++
}

// checkQueues re-verifies every port, phantom queue, and link FIFO in the
// network from first principles.
func (c *InvariantChecker) checkQueues() {
	now := c.net.Now()
	for _, node := range c.net.nodes {
		switch n := node.(type) {
		case *Host:
			if n.nic != nil {
				c.checkPort(n.nic, now)
			}
		case *Switch:
			for _, pt := range n.ports {
				c.checkPort(pt, now)
			}
		}
	}
}

func (c *InvariantChecker) checkPort(p *Port, now eventq.Time) {
	name := p.owner.Name()
	var sum, dataSum int64
	for _, pkt := range p.queue.items() {
		sum += int64(pkt.Size)
		if pkt.Type == Data && !pkt.Trimmed {
			dataSum += int64(pkt.Size)
		}
	}
	if sum != p.queuedBytes {
		c.violate("queue", "%s port: queuedBytes %d != recomputed %d", name, p.queuedBytes, sum)
	}
	if p.queuedBytes < 0 {
		c.violate("queue", "%s port: negative occupancy %d", name, p.queuedBytes)
	}
	if dataSum > p.cfg.QueueCap {
		c.violate("queue", "%s port: data occupancy %d exceeds QueueCap %d", name, dataSum, p.cfg.QueueCap)
	}
	// Observer events fire only where the port is quiescent (transmit arms
	// the timer before it calls into the link).
	if queued, armed := p.QueuedPackets(), p.txTimer.Pending(); p.busy != (queued > 0) || p.busy != armed ||
		(armed && (p.txTimer.At() != p.busyUntil || p.busyUntil < now)) {
		c.violate("queue", "%s port: busy=%v with %d packets queued, timer armed=%v at %v, busyUntil %v",
			name, p.busy, queued, armed, p.txTimer.At(), p.busyUntil)
	}
	if p.busyUntil < c.busyUntil[p] {
		c.violate("time", "%s port: busyUntil moved back from %v to %v", name, c.busyUntil[p], p.busyUntil)
	}
	c.busyUntil[p] = p.busyUntil
	if ph := p.cfg.Phantom; ph != nil {
		if ph.bytes < 0 || ph.bytes > float64(ph.Cap) {
			c.violate("queue", "%s port: phantom occupancy %.1f outside [0, %d]", name, ph.bytes, ph.Cap)
		}
		if ph.lastUpdate > now {
			c.violate("queue", "%s port: phantom drain clock %v ahead of now %v", name, ph.lastUpdate, now)
		}
	}
	l := p.link
	if l.inFlight < 0 {
		c.violate("queue", "link %s: negative in-flight count %d", l.Name, l.inFlight)
	}
}

// Check runs the final sweep — queue state, physical in-flight
// reconciliation, per-flow conservation, and EC block completion — and
// returns every violation recorded over the whole run. Call it when the
// scenario ends (quiescent or not: packets still in queues or on links
// count as in flight).
func (c *InvariantChecker) Check() []Violation {
	c.checkQueues()

	// Physical walk: every packet sitting in a port queue. The packet in
	// service is already on its link and counts in the link's inFlight.
	inPorts := make(map[*Packet]struct{})
	inflight := make(map[FlowID]int64)
	extraInjected := make(map[FlowID]int64)
	linkInFlight := 0
	collect := func(pkt *Packet) {
		if _, dup := inPorts[pkt]; dup {
			c.violate("conservation", "packet queued twice (id=%d flow=%d)", pkt.ID, pkt.Flow)
		}
		inPorts[pkt] = struct{}{}
		inflight[pkt.Flow]++
		if _, live := c.live[pkt]; !live {
			if pkt.Type == Cnm {
				extraInjected[pkt.Flow]++ // injected at a switch, never yet observed
			} else {
				c.violate("conservation", "packet in a queue without a send event (id=%d type=%v flow=%d)",
					pkt.ID, pkt.Type, pkt.Flow)
			}
		}
	}
	walkPort := func(p *Port) {
		for _, pkt := range p.queue.items() {
			collect(pkt)
		}
		linkInFlight += p.link.inFlight
	}
	for _, node := range c.net.nodes {
		switch n := node.(type) {
		case *Host:
			if n.nic != nil {
				walkPort(n.nic)
			}
		case *Switch:
			for _, pt := range n.ports {
				walkPort(pt)
			}
		}
	}

	// Every tracked-live packet not found in a port must be propagating on
	// a link; the total must match the links' own in-flight counters.
	onLinks := 0
	for pkt, info := range c.live {
		if _, ok := inPorts[pkt]; ok {
			continue
		}
		onLinks++
		inflight[info.flow]++
	}
	if onLinks != linkInFlight+c.crossPending {
		c.violate("conservation", "%d live packets unaccounted by ports vs %d in flight on links (+%d cross-shard pending)",
			onLinks, linkInFlight, c.crossPending)
	}

	// Per-flow conservation: everything that entered this shard's fabric
	// (injected here or imported from another shard) left it (delivered,
	// dropped, or exported) or is still in flight.
	for id, fa := range c.flows {
		injected := fa.injected + fa.imported + extraInjected[id]
		if injected != fa.delivered+fa.dropped+fa.exported+inflight[id] {
			c.violate("conservation",
				"flow %d: injected %d + imported %d != delivered %d + dropped %d + exported %d + in-flight %d",
				id, fa.injected+extraInjected[id], fa.imported, fa.delivered, fa.dropped, fa.exported, inflight[id])
		}
	}

	// EC block completion: every block of a completed flow must have been
	// declared decodable; a block holding a full data-shard set must not
	// be left undeclared.
	for key, ba := range c.blocks {
		if ba.ok {
			continue
		}
		if fa := c.flows[key.flow]; fa != nil && fa.done {
			c.violate("ec", "flow %d completed but block %d was never declared decodable", key.flow, key.block)
		}
		if c.ECData > 0 && len(ba.delivered) >= c.ECData {
			c.violate("ec", "flow %d block %d: %d distinct packets delivered (>= %d data shards) but never declared decodable",
				key.flow, key.block, len(ba.delivered), c.ECData)
		}
	}

	if c.truncated {
		c.violate("time", "violation log truncated at %d entries", maxViolations)
	}
	return c.violations
}

// ClusterInvariants is the sharded-simulation invariant layer: one
// InvariantChecker per shard plus the cross-shard handoff reconciliation
// that no single shard can perform alone — every border handoff must be
// accounted for (pushed = drained + queued per direction, and per flow:
// exports = imports + records still queued). Build with
// AttachClusterInvariants, read results with Check after the run.
type ClusterInvariants struct {
	cl *Cluster
	// Shards holds the per-shard checkers, indexed by shard.
	Shards []*InvariantChecker
}

// AttachClusterInvariants wires a fresh InvariantChecker into every shard
// of cl and registers them with the cluster, so the barrier drain reports
// imports as it materializes records. Attach before traffic flows.
func AttachClusterInvariants(cl *Cluster) *ClusterInvariants {
	ci := &ClusterInvariants{cl: cl}
	for _, n := range cl.shards {
		ci.Shards = append(ci.Shards, AttachInvariants(n))
	}
	cl.checkers = ci.Shards
	return ci
}

// Events returns the total observer events seen across all shards.
func (ci *ClusterInvariants) Events() uint64 {
	var sum uint64
	for _, c := range ci.Shards {
		sum += c.Events()
	}
	return sum
}

// Check runs every shard's final sweep plus the cross-shard handoff
// reconciliation and returns all violations. Call it from the
// coordinating goroutine after the run (quiescent or not: records still
// queued and arrivals still scheduled count as in flight).
func (ci *ClusterInvariants) Check() []Violation {
	var out []Violation
	for _, c := range ci.Shards {
		out = append(out, c.Check()...)
	}
	violate := func(format string, args ...any) {
		out = append(out, Violation{
			At: ci.cl.Now(), Check: "handoff", Msg: fmt.Sprintf(format, args...),
		})
	}

	// Per-direction counters: every record ever pushed was drained or is
	// still queued. (The seeded drop defect counts its victim as drained,
	// so this alone cannot catch it — the per-flow reconciliation below
	// does, because the dropped record was never imported anywhere.)
	inQueue := make(map[FlowID]int64)
	for _, q := range ci.cl.queues {
		if q == nil {
			continue
		}
		if q.pushed != q.drained+uint64(q.n) {
			violate("handoff %d→%d: pushed %d != drained %d + queued %d",
				q.src, q.dst, q.pushed, q.drained, q.n)
		}
		for i := 0; i < q.n; i++ {
			inQueue[q.recs[i].pkt.Flow]++
		}
	}

	// Per-flow cross-shard conservation: exports = imports + queued.
	exported := make(map[FlowID]int64)
	imported := make(map[FlowID]int64)
	for _, c := range ci.Shards {
		for id, fa := range c.flows {
			if fa.exported != 0 {
				exported[id] += fa.exported
			}
			if fa.imported != 0 {
				imported[id] += fa.imported
			}
		}
	}
	for id, ex := range exported {
		if ex != imported[id]+inQueue[id] {
			violate("flow %d: exported %d != imported %d + queued %d",
				id, ex, imported[id], inQueue[id])
		}
	}
	for id, im := range imported {
		if _, ok := exported[id]; !ok {
			violate("flow %d: %d imports without any export", id, im)
		}
	}
	return out
}
