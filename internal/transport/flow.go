// Package transport implements the reliable, window-based transport
// framework every protocol in this reproduction runs on: byte-sequenced
// data packets, per-packet ACKs echoing ECN marks and timestamps, RTT
// estimation, fast retransmit and RTO recovery, optional pacing, optional
// UnoRC erasure-coded block framing with receiver NACK timers, and
// pluggable congestion-control and path-selection (load-balancing)
// policies.
//
// The split mirrors the paper's architecture (Fig 5): congestion control
// (UnoCC, Gemini, MPRDMA, BBR) and reliable connectivity (erasure coding +
// load balancing) are policies layered over one shared transport substrate.
package transport

import (
	"fmt"
	"math"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// HeaderSize is the per-packet header overhead in bytes added to every data
// packet's wire size.
const HeaderSize = 64

// Flow describes one message transfer.
type Flow struct {
	ID    netsim.FlowID
	Src   *netsim.Host
	Dst   *netsim.Host
	Size  int64       // application payload bytes
	Start eventq.Time // arrival time of the message at the sender

	// InterDC records whether the flow crosses datacenters; harnesses use
	// it for reporting and protocols may use it for configuration.
	InterDC bool
}

// UnoRC's block shape (Table 2, §5.2.3): every block of ecData data
// packets is followed by ecParity parity packets, and any ecData of its
// packets decode it.
const (
	ecData   = 8
	ecParity = 2
)

// The retransmission timeout's bounds, in multiples of the flow's BaseRTT:
// the RTO floor is minRTOFactor × BaseRTT and the back-off ceiling
// maxRTOFactor times that. A tight ceiling: failure-recovery experiments
// depend on timeouts staying lively (each RTO is also a repath opportunity
// for the load balancers), and a 64× ceiling lets one bad streak sleep
// through hundreds of milliseconds. validate rejects a BaseRTT whose
// ceiling overflows eventq.Time.
const (
	minRTOFactor = 4
	maxRTOFactor = 8
)

// Params are per-flow transport parameters.
type Params struct {
	// MTU is the data packet payload size in bytes (paper default 4096).
	MTU int
	// BaseRTT is the unloaded round-trip estimate: it seeds pacing before
	// any RTT sample exists, sets the RTO bounds (minRTOFactor,
	// maxRTOFactor) and is the receiver's NACK timer.
	BaseRTT eventq.Time
	// DupAckThresh is the number of ACKs above the lowest unacked packet
	// before fast retransmit fires. Raise it for load balancers that
	// reorder (RPS, UnoLB).
	DupAckThresh int
	// EC turns on UnoRC erasure coding in (ecData, ecParity) blocks
	// (inter-DC flows under UnoRC).
	EC bool
}

// withDefaults fills unset parameters.
func (p Params) withDefaults() Params {
	if p.MTU <= 0 {
		p.MTU = 4096
	}
	if p.BaseRTT <= 0 {
		p.BaseRTT = 100 * eventq.Microsecond
	}
	if p.DupAckThresh <= 0 {
		p.DupAckThresh = 3
	}
	return p
}

// validate rejects nonsensical parameters.
func (p Params) validate() error {
	if p.MTU > math.MaxInt32-HeaderSize {
		return fmt.Errorf("transport: MTU %d does not fit the schedule's 32-bit payload sizes", p.MTU)
	}
	if p.BaseRTT > math.MaxInt64/(minRTOFactor*maxRTOFactor) {
		return fmt.Errorf("transport: BaseRTT %v overflows the RTO ceiling (%d × BaseRTT)", p.BaseRTT, minRTOFactor*maxRTOFactor)
	}
	return nil
}

// rtoBounds returns the RTO floor and back-off ceiling.
func (p *Params) rtoBounds() (min, max eventq.Time) {
	min = minRTOFactor * p.BaseRTT
	return min, maxRTOFactor * min
}

// schedule lays out a flow of size bytes under p: with EC in
// (ecData, ecParity) blocks.
func (p *Params) schedule(size int64) schedule {
	if p.EC {
		return newSchedule(size, p.MTU, ecData, ecParity)
	}
	return newSchedule(size, p.MTU, 0, 0)
}

// pktDesc is one entry of a flow's transmission schedule: the sequence space
// covers data packets and, with EC enabled, the interleaved parity packets
// of each block.
type pktDesc struct {
	payload  int   // payload bytes (0 for parity packets' accounting, see wire)
	wire     int   // bytes on the wire
	block    int32 // block number (-1 without EC)
	blockIdx int16 // index within the block
	parity   bool
}

// blockDesc summarizes one erasure-coding block of the schedule.
type blockDesc struct {
	start     int64 // first schedule index of the block
	count     int16 // total packets in the block (data + parity)
	dataCount int16 // packets required to decode (= data packets)
}

// schedule is a flow's static transmission schedule in closed form. Without
// EC it is ceil(size/MTU) data packets. With EC, data packets are grouped
// into blocks of x and each block is followed by y parity packets sized
// like the block's largest payload; every block but the last is full, so
// block b starts at b*(x+y). Open builds it once and hands a copy to both
// ends: an entry is a pure function of its sequence number, so no
// per-packet table exists and a flow's fixed state does not grow with its
// size.
type schedule struct {
	nData   int64 // data packets
	n       int64 // entries: data plus parity
	nBlocks int64 // 0 without EC
	// x and y are the EC block shape (data, parity); x == 0 without EC.
	x, y int32
	// Payload of a full and of the final data packet; 32-bit (validate
	// bounds MTU) so that the schedule is 40 bytes and a Conn stays inside
	// the 480-byte allocation class.
	mtu, lastPayload int32
}

// newSchedule lays out size bytes in packets of at most mtu payload bytes,
// in blocks of data packets each followed by parity packets when data > 0.
// Flows take the (ecData, ecParity) shape or none (Params.schedule); the
// schedule tests check arbitrary shapes against a reference table.
func newSchedule(size int64, mtu int, data, parity int32) schedule {
	if size <= 0 {
		size = 1
	}
	m := int64(mtu)
	s := schedule{nData: (size + m - 1) / m, mtu: int32(mtu)}
	s.lastPayload = int32(size - (s.nData-1)*m)
	s.n = s.nData
	if data > 0 {
		s.x, s.y = data, parity
		s.nBlocks = (s.nData + int64(s.x) - 1) / int64(s.x)
		s.n += s.nBlocks * int64(s.y)
	}
	return s
}

// dataPayload returns the payload of data packet i (counting data only).
func (s *schedule) dataPayload(i int64) int {
	if i == s.nData-1 {
		return int(s.lastPayload)
	}
	return int(s.mtu)
}

// dataIn returns the number of data packets of block b.
func (s *schedule) dataIn(b int64) int64 {
	if b == s.nBlocks-1 {
		return s.nData - b*int64(s.x)
	}
	return int64(s.x)
}

// desc returns schedule entry seq, 0 <= seq < s.n.
func (s *schedule) desc(seq int64) pktDesc {
	if s.x == 0 {
		payload := s.dataPayload(seq)
		return pktDesc{payload: payload, wire: payload + HeaderSize, block: -1, blockIdx: -1}
	}
	// The block number costs one division per packet; take the 32-bit one
	// (less than half the latency of a 64-bit divide) whenever seq allows.
	per := int64(s.x) + int64(s.y)
	var b int64
	if uint64(seq) <= math.MaxUint32 {
		b = int64(uint32(seq) / uint32(per))
	} else {
		b = seq / per
	}
	i, d := seq-b*per, s.dataIn(b)
	if i < d {
		payload := s.dataPayload(b*int64(s.x) + i)
		return pktDesc{payload: payload, wire: payload + HeaderSize, block: int32(b), blockIdx: int16(i)}
	}
	// Parity is sized like the block's largest payload: a full packet,
	// unless the block's only data packet is the flow's short last one.
	wire := s.mtu
	if d == 1 && b == s.nBlocks-1 {
		wire = s.lastPayload
	}
	return pktDesc{wire: int(wire) + HeaderSize, block: int32(b), blockIdx: int16(i), parity: true}
}

// block returns the summary of block b, 0 <= b < s.nBlocks.
func (s *schedule) block(b int32) blockDesc {
	d := s.dataIn(int64(b))
	return blockDesc{
		start:     int64(b) * (int64(s.x) + int64(s.y)),
		count:     int16(d + int64(s.y)),
		dataCount: int16(d),
	}
}
