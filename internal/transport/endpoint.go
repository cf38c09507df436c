package transport

import (
	"fmt"

	"uno/internal/netsim"
)

// Endpoint is the per-host transport layer: it owns the host's packet
// handler and demultiplexes data, ACK, and NACK packets to the flows
// registered on it.
type Endpoint struct {
	host      *netsim.Host
	senders   map[netsim.FlowID]*Conn
	receivers map[netsim.FlowID]*Receiver
}

// NewEndpoint installs a transport endpoint on the host.
func NewEndpoint(h *netsim.Host) *Endpoint {
	ep := &Endpoint{
		host:      h,
		senders:   make(map[netsim.FlowID]*Conn),
		receivers: make(map[netsim.FlowID]*Receiver),
	}
	h.SetHandler(ep.handle)
	return ep
}

// Host returns the underlying host.
func (ep *Endpoint) Host() *netsim.Host { return ep.host }

// handle demultiplexes arriving packets.
func (ep *Endpoint) handle(p *netsim.Packet) {
	switch p.Type {
	case netsim.Data:
		if r, ok := ep.receivers[p.Flow]; ok {
			r.handleData(p)
		}
	case netsim.Ack:
		if c, ok := ep.senders[p.Flow]; ok {
			c.handleAck(p)
		}
	case netsim.Nack:
		if c, ok := ep.senders[p.Flow]; ok {
			c.handleNack(p)
		}
	case netsim.Cnm:
		if c, ok := ep.senders[p.Flow]; ok {
			c.handleCnm(p)
		}
	}
}

// Handle injects a packet into the endpoint's demultiplexer. It is what
// the endpoint registers as the host's packet handler; it is exported so
// harnesses and tests can wrap the handler with taps that forward here.
func (ep *Endpoint) Handle(p *netsim.Packet) { ep.handle(p) }

// Sender returns the sending Conn of a live flow, or nil: a sender leaves
// the endpoint when its flow completes (the Conn Open returned stays valid
// as a result handle).
func (ep *Endpoint) Sender(id netsim.FlowID) *Conn { return ep.senders[id] }

// Receiver returns the receiving state for a flow, or nil. Receivers stay
// registered after completion: late duplicates still get their ACK.
func (ep *Endpoint) Receiver(id netsim.FlowID) *Receiver { return ep.receivers[id] }

// Open wires up a flow on its two endpoints — sender Conn, passive
// Receiver, demux registrations — without transmitting anything. The
// returned Conn stays idle (no events scheduled, no RNG drawn) until
// Launch runs; a harness Sim with per-DC shards opens every flow at setup
// time from the coordinating goroutine and schedules Launch on the source
// shard's clock, while a one-shard Sim opens and launches at the flow's
// start time. onDone, which may be
// nil, is invoked once the sender observes the receiver's FlowDone.
func Open(src, dst *Endpoint, flow *Flow, params Params,
	cc CongestionControl, lb PathSelector, onDone func(*Conn)) (*Conn, error) {
	if src.host != flow.Src || dst.host != flow.Dst {
		return nil, fmt.Errorf("transport: endpoint/flow host mismatch for flow %d", flow.ID)
	}
	if _, dup := src.senders[flow.ID]; dup {
		return nil, fmt.Errorf("transport: duplicate flow id %d at sender %s", flow.ID, src.host.Name())
	}
	if _, dup := dst.receivers[flow.ID]; dup {
		return nil, fmt.Errorf("transport: duplicate flow id %d at receiver %s", flow.ID, dst.host.Name())
	}
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}

	// One schedule for both ends: it is a small value, so each keeps a copy.
	sched := newSchedule(flow.Size, &params)
	conn := newConn(src, flow, &params, sched, cc, lb, onDone)
	src.senders[flow.ID] = conn
	dst.receivers[flow.ID] = newReceiver(dst, flow, &params, sched)
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
