package transport

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
)

// AckInfo is the congestion-control view of one arriving ACK.
type AckInfo struct {
	Seq    int64       // schedule index of the acked packet
	Bytes  int         // newly acknowledged wire bytes (0 for duplicates)
	Marked bool        // ECN mark echoed by the receiver
	RTT    eventq.Time // RTT sample, 0 if invalid (retransmitted packet)
	SentAt eventq.Time // when the acked packet was (re)transmitted
	IsRtx  bool        // acked packet was a retransmission
	Now    eventq.Time
}

// CongestionControl is the pluggable rate-control policy. Implementations
// live in internal/core (UnoCC) and internal/baselines (Gemini, MPRDMA,
// BBR). All callbacks run on the simulation goroutine.
type CongestionControl interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Init is called once, after the Conn is fully constructed, and should
	// set the initial window and (optionally) pacing rate.
	Init(c *Conn)
	// OnAck is called for every arriving ACK, including duplicates.
	OnAck(c *Conn, a AckInfo)
	// OnNack is called when a UnoRC block NACK arrives.
	OnNack(c *Conn)
	// OnTimeout is called when the retransmission timer fires.
	OnTimeout(c *Conn)
}

// CnmReceiver is an optional congestion-control extension: controllers
// that implement it receive QCN congestion-notification messages (the
// Annulus add-on). Feedback is the notifying queue's relative overload in
// [0, 1].
type CnmReceiver interface {
	OnCnm(c *Conn, feedback float64)
}

// PathSelector is the pluggable load-balancing policy: it chooses the
// entropy value (the ECMP-hashed "source port", §4.2) of every outgoing
// data packet, and observes ACKs/NACKs/timeouts to adapt.
type PathSelector interface {
	// Name identifies the scheme in reports.
	Name() string
	// Init is called once per Conn.
	Init(c *Conn)
	// Assign sets p.Entropy (and optionally p.Subflow) before transmission.
	Assign(c *Conn, p *netsim.Packet)
	// OnAck observes a successfully delivered packet's subflow and entropy:
	// the values Assign gave the acknowledged data packet, which the
	// receiver copies into the ACK (so the ACK itself came back on that
	// entropy's reverse path — a path whose ACKs die looks, to the selector,
	// like one whose data does).
	OnAck(c *Conn, p AckInfo, subflow int8, entropy uint32)
	// OnNack is called when a block NACK indicates path trouble.
	OnNack(c *Conn)
	// OnTimeout is called on RTO expiry.
	OnTimeout(c *Conn)
}

// FixedWindow is the trivial CongestionControl: a constant window with no
// reaction to congestion. It is useful for tests, for ideal-baseline
// computations, and as a scaffold for new controllers.
type FixedWindow struct {
	// Window in wire bytes. Zero defaults to 16 packets.
	Window float64
}

// Name implements CongestionControl.
func (f *FixedWindow) Name() string { return "fixed" }

// Init implements CongestionControl.
func (f *FixedWindow) Init(c *Conn) {
	w := f.Window
	if w <= 0 {
		w = 16 * float64(c.MTUWire())
	}
	c.SetCwnd(w)
}

// OnAck implements CongestionControl.
func (f *FixedWindow) OnAck(*Conn, AckInfo) {}

// OnNack implements CongestionControl.
func (f *FixedWindow) OnNack(*Conn) {}

// OnTimeout implements CongestionControl.
func (f *FixedWindow) OnTimeout(*Conn) {}

// FixedEntropy is the trivial PathSelector: a single entropy for the whole
// flow — classic per-flow ECMP. It is the "Uno+ECMP" and baseline-transport
// default.
type FixedEntropy struct {
	// Entropy is the value used for every packet. Harnesses typically
	// draw it at flow start.
	Entropy uint32
}

// Name implements PathSelector.
func (f *FixedEntropy) Name() string { return "ecmp" }

// Init implements PathSelector.
func (f *FixedEntropy) Init(c *Conn) {
	if f.Entropy == 0 {
		f.Entropy = c.Rand().Uint32() | 1
	}
}

// Assign implements PathSelector.
func (f *FixedEntropy) Assign(c *Conn, p *netsim.Packet) {
	p.Entropy = f.Entropy
	p.Subflow = -1
}

// OnAck implements PathSelector.
func (f *FixedEntropy) OnAck(*Conn, AckInfo, int8, uint32) {}

// OnNack implements PathSelector.
func (f *FixedEntropy) OnNack(*Conn) {}

// OnTimeout implements PathSelector.
func (f *FixedEntropy) OnTimeout(*Conn) {}
