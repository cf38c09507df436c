package netsim

import (
	"math"
	"testing"

	"uno/internal/eventq"
)

// TestQCNFeedbackClamped: even when bypassing control traffic pushes the
// queue past its capacity, the CNM feedback stays in [0, 1].
func TestQCNFeedbackClamped(t *testing.T) {
	cfg := PortConfig{QueueCap: 4 << 10, ControlBypass: true, Trim: true, QCN: true}
	net, a, sw, b := buildPair(t, cfg, 1e9, eventq.Microsecond)
	var feedbacks []float64
	// buildPair's single-port switch routes everything — CNMs included —
	// toward b, which is fine: only the feedback values matter here.
	b.SetHandler(func(p *Packet) {
		if p.Type == Cnm {
			feedbacks = append(feedbacks, p.Feedback)
		}
	})
	// Flood faster than the port drains: everything past the capacity is
	// trimmed and bypasses, so queuedBytes exceeds QueueCap while QCN keeps
	// sampling data packets (every 32nd above 819 B, a fifth of 4 KiB).
	for i := 0; i < 64; i++ {
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: int64(i)})
	}
	net.Sched.Run()
	if len(feedbacks) == 0 {
		t.Fatal("no CNMs despite a standing queue above the QCN threshold")
	}
	for _, f := range feedbacks {
		if math.IsNaN(f) || f < 0 || f > 1 {
			t.Fatalf("CNM feedback %v outside [0, 1]", f)
		}
	}
}

// TestQCNSampleDefault: QCN samples every 32nd admitted data packet above
// the threshold, a fifth of the queue capacity.
func TestQCNSampleDefault(t *testing.T) {
	cfg := PortConfig{QueueCap: 1 << 20, QCN: true}
	_, a, sw, b := buildPair(t, cfg, 1e9, eventq.Microsecond)
	// Enqueue synchronously (no scheduler run): the first packet enters the
	// transmitter and the next 51 fill the queue to 208,896 B, just under
	// the 209,715 B threshold; every later one queues above it.
	for i := 0; i < 1+51+64; i++ {
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: int64(i)})
	}
	// 64 packets counted above the threshold → exactly 2 samples.
	if got := sw.Port(0).Stats().CnmsSent; got != 2 {
		t.Fatalf("CnmsSent = %d, want 2", got)
	}
}

// TestQCNCnmRoutedFromMidPathSwitch: a CNM generated at a congested
// second-hop switch must be routed back to the packet's source host like
// any other packet, arriving with in-range feedback.
func TestQCNCnmRoutedFromMidPathSwitch(t *testing.T) {
	const fast, slow = int64(100e9), int64(1e9)
	net := New(1)
	sw1 := NewSwitch(net, "sw1", nil)
	sw2 := NewSwitch(net, "sw2", nil)
	a := NewHost(net, "a", 0)
	b := NewHost(net, "b", 0)
	a.AttachNIC(sw1, fast, eventq.Microsecond)
	byDst := func(aPort, bPort int) Router {
		return routerFunc(func(_ *Switch, p *Packet) int {
			if p.Dst == a.ID() {
				return aPort
			}
			return bPort
		})
	}
	// sw1: port 0 → sw2 (fast), port 1 → a.
	sw1.AddPort(sw2, fast, eventq.Microsecond, defaultPort())
	sw1.AddPort(a, fast, eventq.Microsecond, defaultPort())
	sw1.SetRouter(byDst(1, 0))
	// sw2: port 0 → b is the slow, QCN-enabled bottleneck; port 1 → sw1.
	sw2.AddPort(b, slow, eventq.Microsecond, PortConfig{QueueCap: 1 << 20, QCN: true})
	sw2.AddPort(sw1, fast, eventq.Microsecond, defaultPort())
	sw2.SetRouter(byDst(1, 0))

	cnms := 0
	a.SetHandler(func(p *Packet) {
		if p.Type == Cnm {
			cnms++
			if math.IsNaN(p.Feedback) || p.Feedback < 0 || p.Feedback > 1 {
				t.Fatalf("CNM feedback %v outside [0, 1]", p.Feedback)
			}
		}
	})
	b.SetHandler(func(*Packet) {})
	// The queue passes the 209,715 B threshold at its 52nd packet; the
	// rest give two samples.
	for i := 0; i < 128; i++ {
		a.Send(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: int64(i)})
	}
	net.Sched.Run()
	if cnms == 0 {
		t.Fatal("no CNM made it back to the source from the mid-path switch")
	}
	if sw2.Port(0).Stats().CnmsSent == 0 {
		t.Fatal("congested mid-path port sent no CNMs")
	}
}

// TestQCNFeedbackExactBounds pins sendCnm's feedback value at the two
// boundary occupancies the fused Enqueue pass must preserve exactly:
// a queue at precisely QueueCap yields feedback 1.0 (the normalization
// (qb−thresh)/(cap−thresh) with no clamping slack), and a queue pushed
// past QueueCap by trim+bypass admissions clamps to exactly 1.0 rather
// than exceeding it.
func TestQCNFeedbackExactBounds(t *testing.T) {
	// 40 KiB capacity, so the threshold is 8 KiB and the 32 samples'
	// worth of admissions above it fit the 32 KiB band in 1 KiB packets.
	// ControlBypass lets the CNM itself through the full queue (data
	// admissions are still capacity-checked, so the occupancy math below is
	// unchanged); the feedback is computed before the CNM joins the queue.
	cfg := PortConfig{QueueCap: 40 << 10, ControlBypass: true, QCN: true}
	net, a, sw, b := buildPair(t, cfg, 1e9, eventq.Microsecond)
	var feedbacks []float64
	b.SetHandler(func(p *Packet) {
		if p.Type == Cnm {
			feedbacks = append(feedbacks, p.Feedback)
		}
	})
	// Synchronous enqueues: the first packet enters the transmitter
	// immediately (queuedBytes 0), the next two queue to 8192 (== thresh,
	// not counted: the comparison is strict), and 32 of 1 KiB take it to
	// exactly 40960 == QueueCap. The 32nd is sampled → feedback
	// (40960−8192)/(40960−8192) = 1.0 exactly.
	for i := 0; i < 3+32; i++ {
		size := 4096
		if i >= 3 {
			size = 1024
		}
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: size, Seq: int64(i)})
	}
	net.Sched.Run()
	if len(feedbacks) != 1 {
		t.Fatalf("got %d CNMs, want exactly 1 (full-queue sample)", len(feedbacks))
	}
	if feedbacks[0] != 1.0 {
		t.Fatalf("feedback at exactly-full queue = %v, want exactly 1.0", feedbacks[0])
	}

	// Overfull via trim+bypass: a full queue trims arriving data to AckSize
	// and ControlBypass admits the headers past QueueCap, so queuedBytes
	// exceeds the capacity while QCN keeps sampling. Every feedback must be
	// the clamped 1.0, never more.
	cfg2 := PortConfig{QueueCap: 40 << 10, ControlBypass: true, Trim: true, QCN: true}
	net2, a2, sw2, b2 := buildPair(t, cfg2, 1e9, eventq.Microsecond)
	feedbacks = nil
	b2.SetHandler(func(p *Packet) {
		if p.Type == Cnm {
			feedbacks = append(feedbacks, p.Feedback)
		}
	})
	// One packet in service, ten to fill the queue (eight counted above
	// 8 KiB), then 37 trimmed: the 32nd count falls past QueueCap.
	for i := 0; i < 48; i++ {
		sw2.Port(0).Enqueue(&Packet{Type: Data, Src: a2.ID(), Dst: b2.ID(), Size: 4096, Seq: int64(i)})
	}
	if qb := sw2.Port(0).QueuedBytes(); qb <= cfg2.QueueCap {
		t.Fatalf("queue not overfull (%d ≤ %d): trim+bypass scenario broken", qb, cfg2.QueueCap)
	}
	net2.Sched.Run()
	over := 0
	for _, f := range feedbacks {
		if f > 1 || f != f {
			t.Fatalf("overfull-queue feedback %v, want clamp to 1.0", f)
		}
		if f == 1.0 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("no clamped 1.0 feedback despite an overfull queue")
	}
}

// TestQCNSamplingCountsTrimmedPackets: the sampling counter advances on
// every admitted data packet above the threshold, trimmed headers included
// — a trimmed packet still signals offered load at this hop. With
// one untrimmed and 127 trimmed admissions above the threshold, exactly 4
// CNMs must go out; a regression that skips trimmed packets (p.Trimmed
// check in the fused pass) would stall the cadence entirely.
func TestQCNSamplingCountsTrimmedPackets(t *testing.T) {
	cfg := PortConfig{QueueCap: 4 << 10, ControlBypass: true, Trim: true, QCN: true}
	_, a, sw, b := buildPair(t, cfg, 1e9, eventq.Microsecond)
	// First packet occupies the transmitter, second fills the queue past
	// the 819 B threshold; the following 127 all arrive at a full queue
	// and are trimmed+bypassed.
	for i := 0; i < 2; i++ {
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: int64(i)})
	}
	trimsBefore := sw.Port(0).Stats().Trims
	for i := 0; i < 127; i++ {
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: int64(2 + i)})
	}
	st := sw.Port(0).Stats()
	if st.Trims-trimsBefore != 127 {
		t.Fatalf("trims = %d, want 127 (scenario must trim every late arrival)", st.Trims-trimsBefore)
	}
	// Cadence: 1 untrimmed admission above threshold (packet 2) + 127
	// trimmed = 128 counted → samples at counts 32, 64, 96, 128.
	if st.CnmsSent != 4 {
		t.Fatalf("CnmsSent = %d, want 4 (every 32nd counted admission, trimmed included)", st.CnmsSent)
	}
}
