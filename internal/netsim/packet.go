// Package netsim is the packet-level network simulator underlying the whole
// reproduction — the Go equivalent of the htsim core the paper's artifact
// extends. It models store-and-forward output-queued switches, links with
// bandwidth and propagation delay, RED ECN marking, and the HULL-style
// phantom queues that UnoCC relies on (§4.1.3).
package netsim

import (
	"uno/internal/eventq"
)

// NodeID identifies a node (host or switch) in a Network.
type NodeID int32

// FlowID identifies a transport flow end to end.
type FlowID int64

// PacketType distinguishes the kinds of simulated packets.
type PacketType uint8

// Packet types.
const (
	Data PacketType = iota // transport payload packet
	Ack                    // per-packet acknowledgment
	Nack                   // UnoRC block NACK
	Cnm                    // QCN congestion-notification message (Annulus extension)
)

func (t PacketType) String() string {
	switch t {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Nack:
		return "nack"
	case Cnm:
		return "cnm"
	default:
		return "unknown"
	}
}

// AckSize is the wire size of control packets (ACK/NACK) in bytes.
const AckSize = 64

// Packet is a simulated packet. The simulator moves metadata only — like
// htsim, no payload bytes are carried; the erasure codec's byte-level
// correctness is validated separately in package ec.
//
// A Packet is owned by exactly one component at a time (sender → queue →
// link → receiver), so no locking is needed.
//
// Layout: every field a hop reads — countHop, Switch.HandlePacket's router,
// Port.Enqueue and the digest fold — sits in the first 64 bytes, so a
// forwarded packet costs one cache line. hops and pooled fill the padding
// after Type; TestPacketHotFieldsFirstCacheLine pins the rule.
type Packet struct {
	ID   uint64 // globally unique, assigned by the Network
	Type PacketType

	// pooled marks packets obtained from Network.AllocPacket. Only pooled
	// packets are recycled by FreePacket; packets built with struct
	// literals (tests, external injectors) pass through the fabric's
	// terminal points untouched.
	pooled bool

	// hops counts traversed links, used to catch routing loops.
	hops int32

	Flow FlowID
	Src  NodeID // source host
	Dst  NodeID // destination host
	Size int    // bytes on the wire

	// Entropy is the ECMP entropy field (the UDP source port analogue,
	// §4.2): switches hash it to pick among equal-cost paths and load
	// balancers rewrite it to steer packets.
	Entropy uint32

	// ECN state. ECNCapable packets may be marked instead of dropped by
	// RED; control packets are not ECN-capable.
	ECNCapable bool
	ECNMarked  bool

	// Trimmed marks a data packet whose payload was cut at an overflowing
	// queue (NDP-style packet trimming, an optional switch feature): the
	// header still reaches the receiver, which turns it into an immediate
	// loss notification instead of a timeout.
	Trimmed bool

	// Data packet fields.
	Seq      int64       // packet index within the flow's data stream
	SentAt   eventq.Time // transmission (or retransmission) timestamp
	IsRtx    bool        // retransmission
	Block    int32       // erasure-coding block number (-1 when EC is off)
	BlockIdx int16       // index within the block (0..n-1)
	IsParity bool        // parity packet (beyond the flow's data bytes)
	Subflow  int8        // UnoLB subflow that carried the packet (-1 none)

	// Ack packet fields (echoes of the acked data packet).
	AckSeq      int64       // Seq of the data packet being acked
	EchoSentAt  eventq.Time // SentAt of the acked packet (RTT sampling)
	EchoMarked  bool        // ECN mark observed by the receiver
	EchoRtx     bool        // acked packet was a retransmission
	EchoTrimmed bool        // acked packet arrived trimmed (payload lost)
	AckBlock    int32       // block of the acked packet
	AckBlockOK  bool        // receiver has enough packets to decode AckBlock
	FlowDone    bool        // receiver has the complete message

	// Nack packet fields.
	NackBlock int32   // block that timed out before becoming decodable
	Missing   []int16 // block indices still missing at the receiver

	// Cnm packet fields (QCN-style near-source congestion notification,
	// the Annulus extension): Feedback is the severity in [0, 1], the
	// sampled queue's occupancy above its notification threshold.
	Feedback float64
}

// Node is anything that can terminate or forward packets.
type Node interface {
	// ID returns the node's identifier within its Network.
	ID() NodeID
	// Name returns a human-readable name ("dc0.pod2.edge1", "h42", ...).
	Name() string
	// HandlePacket delivers p to the node. Called by links at the end of
	// propagation.
	HandlePacket(p *Packet)
}

// maxHops bounds forwarding before the simulator declares a routing loop.
const maxHops = 64
