package transport

import (
	"fmt"
	"math"

	"uno/internal/netsim"
)

// Endpoint is the per-host transport layer: it owns the host's packet
// handler and demultiplexes data, ACK, and NACK packets to the live flows
// registered on it, answering late data for finished ones from their
// records.
type Endpoint struct {
	host      *netsim.Host
	flows     *flowTable // shared by every endpoint of the host's shard
	senders   map[netsim.FlowID]*sender
	receivers map[netsim.FlowID]*Receiver
	recv      RecvStats
}

// RecvStats are an endpoint's cumulative receive-side counters, over every
// flow it has received.
type RecvStats struct {
	DupPkts     uint64 // data packets a live receiver already had
	TrimmedPkts uint64 // trimmed data packets a live receiver echoed as lost
	NacksSent   uint64 // block NACKs
	LatePkts    uint64 // data packets of finished flows, answered from their records
}

// NewEndpoint installs a transport endpoint on the host.
func NewEndpoint(h *netsim.Host) *Endpoint {
	n := h.Network()
	ft, _ := n.Transport.(*flowTable)
	if ft == nil {
		ft = new(flowTable)
		n.Transport = ft
	}
	ep := &Endpoint{
		host:      h,
		flows:     ft,
		senders:   make(map[netsim.FlowID]*sender),
		receivers: make(map[netsim.FlowID]*Receiver),
	}
	h.SetHandler(ep.handle)
	return ep
}

// Host returns the underlying host.
func (ep *Endpoint) Host() *netsim.Host { return ep.host }

// RecvStats returns the endpoint's receive-side counters.
func (ep *Endpoint) RecvStats() RecvStats { return ep.recv }

// handle demultiplexes arriving packets.
func (ep *Endpoint) handle(p *netsim.Packet) {
	switch p.Type {
	case netsim.Data:
		if r, ok := ep.receivers[p.Flow]; ok {
			r.handleData(p)
		} else {
			ep.answerFinished(p)
		}
	case netsim.Ack:
		if s, ok := ep.senders[p.Flow]; ok {
			s.handleAck(p)
		}
	case netsim.Nack:
		if s, ok := ep.senders[p.Flow]; ok {
			s.handleNack(p)
		}
	case netsim.Cnm:
		if s, ok := ep.senders[p.Flow]; ok {
			s.handleCnm(p)
		}
	}
}

// Handle injects a packet into the endpoint's demultiplexer. It is what
// the endpoint registers as the host's packet handler; it is exported so
// harnesses and tests can wrap the handler with taps that forward here.
func (ep *Endpoint) Handle(p *netsim.Packet) { ep.handle(p) }

// Sender returns the Conn of a live flow sending from this endpoint, or
// nil: a sender leaves the endpoint when its flow completes (the Conn Open
// returned stays valid as a result handle).
func (ep *Endpoint) Sender(id netsim.FlowID) *Conn {
	if s := ep.senders[id]; s != nil {
		return s.c
	}
	return nil
}

// Receiver returns the receiving state of a live flow, or nil: a receiver
// leaves the endpoint once its message is complete, and what remains is a
// record that answers late data (answerFinished).
func (ep *Endpoint) Receiver(id netsim.FlowID) *Receiver { return ep.receivers[id] }

// Open wires up a flow on its two endpoints — sender state, passive
// receiver, demux registrations — without transmitting anything. Both come
// from their shard's free lists when a finished flow left state there. The
// returned Conn stays idle (no events scheduled, no RNG drawn) until
// Launch runs. Open touches the flow tables of both hosts' shards, so it
// runs on the goroutine that owns them: a harness Sim opens a flow at its
// start time on its source shard's goroutine, except a flow between two
// shards, which it opens at set-up from the coordinating goroutine between
// windows, scheduling only Launch on the source shard's clock. onDone,
// which may be nil, is invoked once the sender observes the receiver's
// FlowDone.
//
// Flow IDs index a per-shard table of finished flows, so they must be
// non-negative and should be dense: harness.Sim numbers its flows 1, 2, 3…
func Open(src, dst *Endpoint, flow *Flow, params Params,
	cc CongestionControl, lb PathSelector, onDone func(*Conn)) (*Conn, error) {
	if src.host != flow.Src || dst.host != flow.Dst {
		return nil, fmt.Errorf("transport: endpoint/flow host mismatch for flow %d", flow.ID)
	}
	if flow.ID < 0 {
		return nil, fmt.Errorf("transport: negative flow id %d", flow.ID)
	}
	if _, dup := src.senders[flow.ID]; dup {
		return nil, fmt.Errorf("transport: duplicate flow id %d at sender %s", flow.ID, src.host.Name())
	}
	if _, dup := dst.receivers[flow.ID]; dup || dst.finished(flow.ID).n != 0 {
		return nil, fmt.Errorf("transport: duplicate flow id %d at receiver %s", flow.ID, dst.host.Name())
	}
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}

	// One schedule for both ends: it is a small value, so each keeps a copy.
	sched := params.schedule(flow.Size)
	if sched.n > math.MaxUint32 {
		return nil, fmt.Errorf("transport: flow %d has %d packets, beyond the 32-bit sequence space", flow.ID, sched.n)
	}
	conn := &Conn{flow: flow, cwnd: float64(params.MTU + HeaderSize)} // until the controller's Init sets it
	conn.s = src.flows.takeSender(src, conn, &params, sched, cc, lb, onDone)
	src.senders[flow.ID] = conn.s
	dst.receivers[flow.ID] = dst.flows.takeReceiver(dst, flow, &params, sched)
	return conn, nil
}

// MustOpen is Open for known-good arguments.
func MustOpen(src, dst *Endpoint, flow *Flow, params Params,
	cc CongestionControl, lb PathSelector, onDone func(*Conn)) *Conn {
	c, err := Open(src, dst, flow, params, cc, lb, onDone)
	if err != nil {
		panic(err)
	}
	return c
}

// Start is Open followed immediately by Launch: wire up the flow and
// begin transmission now (callers schedule it at flow.Start).
func Start(src, dst *Endpoint, flow *Flow, params Params,
	cc CongestionControl, lb PathSelector, onDone func(*Conn)) (*Conn, error) {
	conn, err := Open(src, dst, flow, params, cc, lb, onDone)
	if err != nil {
		return nil, err
	}
	conn.Launch()
	return conn, nil
}

// MustStart is Start for known-good arguments.
func MustStart(src, dst *Endpoint, flow *Flow, params Params,
	cc CongestionControl, lb PathSelector, onDone func(*Conn)) *Conn {
	c, err := Start(src, dst, flow, params, cc, lb, onDone)
	if err != nil {
		panic(err)
	}
	return c
}

// ---- finished flows ----

// finishedFlow is what a completed receiver leaves behind: all a late data
// packet needs to be answered with the FlowDone ACK the receiver would have
// sent. 16 bytes per flow, in the shard's table.
type finishedFlow struct {
	src, dst netsim.NodeID // the flow's hosts: the ACK's destination, and whose record this is
	n        uint32        // schedule entries, for the range check on Seq; 0 marks an empty slot
	per      uint16        // EC block period (Data + Parity), 0 without EC
}

// finished returns the record of flow id if it finished at this endpoint,
// else the zero record.
func (ep *Endpoint) finished(id netsim.FlowID) finishedFlow {
	t := ep.flows.finished
	if id < 0 || id >= netsim.FlowID(len(t)) || t[id].dst != ep.host.ID() {
		return finishedFlow{}
	}
	return t[id]
}

// answerFinished acknowledges a data packet of a flow whose receiver has
// completed, exactly as that receiver would: every packet it could answer
// then is a duplicate or one the decode no longer needed, and either way the
// ACK carries FlowDone — a sender whose last ACK was lost probes until one
// arrives — and, under EC, reports the packet's block decodable.
func (ep *Endpoint) answerFinished(p *netsim.Packet) {
	f := ep.finished(p.Flow)
	if f.n == 0 || p.Seq < 0 || p.Seq >= int64(f.n) {
		return
	}
	ep.recv.LatePkts++
	ack := ep.newAck(p, p.Flow, f.src, true)
	if p.Trimmed {
		ack.EchoTrimmed = true
	} else {
		ack.EchoMarked = p.ECNMarked
		if f.per > 0 {
			ack.AckBlock = int32(p.Seq / int64(f.per))
			ack.AckBlockOK = true
		}
	}
	ep.host.Send(ack)
}

// newAck builds the acknowledgement of data packet p of flow id, sent by
// src, trimmed or whole: the echo fields every ACK carries, with no block
// report. The ACK keeps p's Entropy, as the ACK of a real flow keeps the
// 5-tuple of its data: ACKs of packets that shared a forward path share one
// reverse path and arrive in the order they were sent, so the sender's
// time-based loss sweep sees no reordering a single path cannot produce, and
// a path selector's OnAck learns about the path it actually chose. (A fresh
// random entropy per ACK sprayed a one-path flow's ACKs over every reverse
// path, and the sender read the overtaking as loss — DESIGN §5, "Loss
// recovery".)
func (ep *Endpoint) newAck(p *netsim.Packet, id netsim.FlowID, src netsim.NodeID, done bool) *netsim.Packet {
	ack := ep.host.Network().AllocPacket()
	ack.Type = netsim.Ack
	ack.Flow = id
	ack.Src = ep.host.ID()
	ack.Dst = src
	ack.Size = netsim.AckSize
	ack.Entropy = p.Entropy
	ack.Subflow = p.Subflow
	ack.AckSeq = p.Seq
	ack.EchoSentAt = p.SentAt
	ack.EchoRtx = p.IsRtx
	ack.AckBlock = -1
	ack.FlowDone = done
	return ack
}

// ---- the shard's flow table ----

// flowTable is the transport state one shard's endpoints share: the free
// lists that finished flows return their live state to, and the records of
// finished receivers, indexed by FlowID. Only the shard's goroutine touches
// it inside a window, where it opens the flows that stay within the shard,
// and the coordinator between windows, where a sharded Sim opens the flows
// between shards.
type flowTable struct {
	senders   []*sender
	receivers []*Receiver
	finished  []finishedFlow

	// Seeded defects for the recycling safety test, set only from this
	// package's tests: keepDemux leaves a finished flow's demux entries
	// pointing at its recycled state; skipReset returns state to the free
	// lists as the finished flow left it.
	keepDemux, skipReset bool
}

// pop takes the last object off a free list, or allocates one.
func pop[T any](list *[]*T) *T {
	k := len(*list) - 1
	if k < 0 {
		return new(T)
	}
	x := (*list)[k]
	(*list)[k] = nil
	*list = (*list)[:k]
	return x
}

// reuse returns buf resized to n zeroed elements, keeping its backing array
// when the capacity suffices.
func reuse[T any](buf []T, n int64) []T {
	if int64(cap(buf)) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// takeSender returns reset sender state for the flow of handle c: a
// recycled sender, with its buffers and bound timers, or a new one.
func (t *flowTable) takeSender(ep *Endpoint, c *Conn, params *Params, sched schedule,
	cc CongestionControl, lb PathSelector, onDone func(*Conn)) *sender {
	s := pop(&t.senders)
	if s.sendTimer == nil { // new: bind its timers for good
		sch := ep.host.Network().Sched
		s.sendTimer = sch.NewTimerArg(senderTrySend, s)
		s.rtoTimer = sch.NewTimerArg(senderOnRTO, s)
	}
	s.c, s.ep, s.params, s.cc, s.lb, s.sched, s.onDone = c, ep, *params, cc, lb, sched, onDone
	s.state = reuse(s.state, sched.n+sched.nBlocks)
	s.sentAt = reuse(s.sentAt, sched.n)
	return s
}

// putSender returns a finished flow's sender to the free list, reset to
// its buffers and timers: it pins nothing of the flow.
func (t *flowTable) putSender(s *sender) {
	if !t.skipReset {
		*s = sender{
			state: s.state[:0], sentAt: s.sentAt[:0], rtxQ: s.rtxQ[:0],
			policyTimers: s.policyTimers[:0],
			sendTimer:    s.sendTimer, rtoTimer: s.rtoTimer,
		}
	}
	t.senders = append(t.senders, s)
}

// takeReceiver returns a reset receiver for flow: a recycled one, with its
// buffers, or a new one.
func (t *flowTable) takeReceiver(ep *Endpoint, flow *Flow, params *Params, sched schedule) *Receiver {
	r := pop(&t.receivers)
	r.ep, r.flow, r.sched = ep, flow, sched
	r.got = reuse(r.got, (sched.n+63)/64)
	r.blocks = reuse(r.blocks, sched.nBlocks)
	r.nackTimeout = params.BaseRTT
	return r
}

// retire turns a completed receiver into its flow's record and returns it
// to the free list. Every block is complete, so no NACK timer is left.
func (t *flowTable) retire(r *Receiver) {
	id, ep := r.flow.ID, r.ep
	if n := int(id) + 1; n > len(t.finished) {
		// Double, rather than append's quarter steps for large slices: IDs
		// arrive one at a time, and the steps would allocate five times
		// the final table.
		if n > cap(t.finished) {
			t.finished = append(make([]finishedFlow, 0, max(n, 2*cap(t.finished))), t.finished...)
		}
		t.finished = t.finished[:n]
	}
	t.finished[id] = finishedFlow{
		src: r.flow.Src.ID(),
		dst: ep.host.ID(),
		n:   uint32(r.sched.n),
		per: uint16(r.sched.x + r.sched.y),
	}
	if !t.keepDemux {
		delete(ep.receivers, id)
	}
	if !t.skipReset {
		*r = Receiver{got: r.got[:0], blocks: r.blocks[:0]}
	}
	t.receivers = append(t.receivers, r)
}
