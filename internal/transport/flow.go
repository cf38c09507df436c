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

// ECConfig enables UnoRC erasure coding on a flow.
type ECConfig struct {
	// Data and Parity packets per block — the paper's default scheme is
	// (8, 2) (§5.2.3).
	Data, Parity int
	// BlockTimeout is the receiver's NACK timer: the estimated maximum
	// queuing + transmission delay to gather a block (§4.2).
	BlockTimeout eventq.Time
}

// Enabled reports whether erasure coding is configured.
func (e ECConfig) Enabled() bool { return e.Data > 0 }

// Params are per-flow transport parameters.
type Params struct {
	// MTU is the data packet payload size in bytes (paper default 4096).
	MTU int
	// BaseRTT is the unloaded round-trip estimate used to seed RTO and
	// pacing before any RTT sample exists.
	BaseRTT eventq.Time
	// MinRTO floors the retransmission timeout.
	MinRTO eventq.Time
	// MaxRTO caps exponential RTO backoff.
	MaxRTO eventq.Time
	// InitialCwnd in bytes. Zero defaults to one BDP-ish window chosen by
	// the congestion controller's Init.
	InitialCwnd float64
	// DupAckThresh is the number of ACKs above the lowest unacked packet
	// before fast retransmit fires. Raise it for load balancers that
	// reorder (RPS, UnoLB).
	DupAckThresh int
	// EC optionally enables erasure coding (inter-DC flows under UnoRC).
	EC ECConfig
}

// withDefaults fills unset parameters.
func (p Params) withDefaults() Params {
	if p.MTU <= 0 {
		p.MTU = 4096
	}
	if p.BaseRTT <= 0 {
		p.BaseRTT = 100 * eventq.Microsecond
	}
	if p.MinRTO <= 0 {
		p.MinRTO = 4 * p.BaseRTT
	}
	if p.MaxRTO <= 0 {
		// A tight backoff ceiling: failure-recovery experiments depend on
		// timeouts staying lively (each RTO is also a repath opportunity
		// for the load balancers), and a 64× ceiling lets one bad streak
		// sleep through hundreds of milliseconds.
		p.MaxRTO = 8 * p.MinRTO
	}
	if p.DupAckThresh <= 0 {
		p.DupAckThresh = 3
	}
	if p.EC.Enabled() && p.EC.BlockTimeout <= 0 {
		p.EC.BlockTimeout = p.BaseRTT
	}
	return p
}

// validate rejects nonsensical parameters.
func (p Params) validate() error {
	if p.EC.Data < 0 || p.EC.Parity < 0 {
		return fmt.Errorf("transport: invalid EC config %+v", p.EC)
	}
	if p.MTU > math.MaxInt32-HeaderSize {
		return fmt.Errorf("transport: MTU %d does not fit the schedule's 32-bit payload sizes", p.MTU)
	}
	return nil
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
// into blocks of EC.Data and each block is followed by EC.Parity parity
// packets sized like the block's largest payload; every block but the last
// is full, so block b starts at b*(Data+Parity). Open builds it once and
// hands a copy to both ends: an entry is a pure function of its sequence
// number, so no per-packet table exists and a flow's fixed state does not
// grow with its size.
type schedule struct {
	nData   int64 // data packets
	n       int64 // entries: data plus parity
	nBlocks int64 // 0 without EC
	// x and y are the EC block shape (Data, Parity); x == 0 without EC.
	x, y int32
	// Payload of a full and of the final data packet; 32-bit (validate
	// bounds MTU) so that the schedule is 40 bytes and a Conn stays inside
	// the 480-byte allocation class.
	mtu, lastPayload int32
}

func newSchedule(size int64, p *Params) schedule {
	if size <= 0 {
		size = 1
	}
	mtu := int64(p.MTU)
	s := schedule{nData: (size + mtu - 1) / mtu, mtu: int32(p.MTU)}
	s.lastPayload = int32(size - (s.nData-1)*mtu)
	s.n = s.nData
	if p.EC.Enabled() {
		s.x, s.y = int32(p.EC.Data), int32(p.EC.Parity)
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
