package netsim

import "uno/internal/eventq"

// PortConfig parameterizes one output port's queue.
type PortConfig struct {
	// QueueCap is the physical queue capacity in bytes (paper default:
	// 1 MiB per port; Fig 12 varies it per tier).
	QueueCap int64
	// RED marking thresholds on the physical queue in bytes. The paper
	// sets them to 25% and 75% of QueueCap. If MarkMax == 0, physical ECN
	// marking is disabled (used when a phantom queue provides the signal).
	MarkMin, MarkMax int64
	// Phantom optionally attaches a phantom queue; the final ECN decision
	// is the OR of the physical RED decision and the phantom decision.
	Phantom *PhantomQueue
	// ControlBypass lets 64 B control packets (ACK/NACK) enqueue even when
	// the data queue is full, a standard simulator simplification that
	// keeps the reverse path lossless unless a link fails.
	ControlBypass bool
	// QCN enables QCN-style congestion notification (the Annulus add-on
	// the paper's footnote 4 defers to future work): when the queue
	// exceeds qcnThreshFrac of QueueCap, every qcnSample-th admitted data
	// packet triggers a Cnm packet sent directly back to the packet's
	// source with the queue's relative overload as feedback. Useful only
	// for congestion near the source — precisely Annulus's premise.
	QCN bool

	// Trim enables NDP-style packet trimming: a data packet that would be
	// tail-dropped is instead cut to its header (AckSize bytes) and
	// forwarded with Trimmed set, so the receiver learns about the loss a
	// one-way delay later instead of after a timeout. The paper's §6
	// discusses why this helps intra-DC transports but cannot fix
	// latency-bound inter-DC messages (the notification still pays the
	// WAN RTT) — the trimming extension exists here to demonstrate that.
	Trim bool
}

// QCN's constants: the queue fill, as a fraction of capacity, above which a
// QCN port samples admitted data packets, and the sampling interval.
const (
	qcnThreshFrac = 0.2
	qcnSample     = 32
)

// PortStats are cumulative counters exposed for the harness.
type PortStats struct {
	EnqueuedPackets uint64
	EnqueuedBytes   uint64
	TailDrops       uint64
	ECNMarks        uint64
	Trims           uint64
	CnmsSent        uint64
}

// Port is an output port: a byte-bounded FIFO plus a transmitter that
// serializes packets onto the attached link at line rate (store-and-
// forward: a packet leaves the queue when its serialization begins).
//
// The packet goes to the link the moment its serialization starts — its
// arrival time is already determined — and the port remembers only when the
// wire frees. It schedules a transmit event only while something waits
// behind the packet in service, so a hop through an idle port costs one
// scheduler event, the arrival.
//
// Enqueue is the per-hop hot path: it runs once for every packet at every
// switch, so the admission logic is a single fused pass over one snapshot
// of queue state, with every static threshold that RED and QCN need
// precomputed in newPort (see the redMin/qcnThresh fields).
// The float conversions precomputed there are exact (int64 → float64 of
// in-range values), so the fused pass is bit-identical to the multi-pass
// code it replaced — golden digests do not move.
type Port struct {
	net   *Network
	owner Node
	cfg   PortConfig
	link  *Link

	queue       fifo[*Packet]
	queuedBytes int64
	qcnCount    uint64

	// Transmitter: the packet in service is already on the link; busyUntil
	// is when it finishes serializing, and busy means txTimer is armed at
	// busyUntil because something is queued behind it.
	busy      bool
	busyUntil eventq.Time
	txTimer   *eventq.Timer

	// Admission constants precomputed by newPort so Enqueue converts and
	// divides nothing that is statically known:
	//   redMin/redMax   — float64(cfg.MarkMin/MarkMax); RED enabled iff
	//                     redMax > 0 (exact conversion, same predicate).
	//   qcnThresh       — qcnThreshFrac of QueueCap in bytes, always
	//                     below QueueCap.
	//   qcnRange        — float64(QueueCap - qcnThresh), sendCnm's
	//                     normalization denominator.
	redMin, redMax float64
	qcnThresh      int64
	qcnRange       float64

	// dropLabel is the observer location string for tail drops,
	// precomputed because the concatenation allocated on every drop —
	// the only allocation the fused pass had left.
	dropLabel string

	// One-entry serialization-time cache: ports overwhelmingly transmit
	// runs of equal-size packets (MTU data, AckSize control), and
	// SerializationTime pays an integer division per call.
	serSize int
	serTime eventq.Time

	stats PortStats
}

func newPort(net *Network, owner Node, link *Link, cfg PortConfig) *Port {
	if cfg.QueueCap <= 0 {
		panic("netsim: port needs positive queue capacity")
	}
	p := &Port{net: net, owner: owner, cfg: cfg, link: link}
	p.dropLabel = owner.Name() + " port"
	p.txTimer = net.Sched.NewTimer(p.onTxTimer)
	p.redMin, p.redMax = float64(cfg.MarkMin), float64(cfg.MarkMax)
	p.qcnThresh = int64(float64(cfg.QueueCap) * qcnThreshFrac)
	p.qcnRange = float64(cfg.QueueCap - p.qcnThresh)
	return p
}

// Link returns the attached outgoing link.
func (p *Port) Link() *Link { return p.link }

// QueuedBytes returns the current physical queue occupancy in bytes
// (excluding the packet being serialized).
func (p *Port) QueuedBytes() int64 { return p.queuedBytes }

// QueuedPackets returns the number of queued packets.
func (p *Port) QueuedPackets() int { return p.queue.len() }

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// Config returns the port's configuration.
func (p *Port) Config() PortConfig { return p.cfg }

// Enqueue applies ECN marking, admits or drops the packet, and starts
// transmitting it if the wire is free. The whole admission — phantom
// accounting, capacity/trim, RED, QCN sampling — is one pass over a single
// (now, queuedBytes) snapshot; see the Port doc comment for the bit-identity
// argument.
func (p *Port) Enqueue(pkt *Packet) {
	now := p.net.Now()
	size := int64(pkt.Size)
	qb := p.queuedBytes

	// Phantom queues see every arrival, including ones later tail-dropped:
	// the virtual queue models offered load, not accepted load. Its drain
	// clock advances off the same time read as the rest of the pass.
	phantomMark := false
	if ph := p.cfg.Phantom; ph != nil {
		phantomMark = ph.OnEnqueue(now, pkt.Size, p.net.Rand)
	}

	isData := pkt.Type == Data && !pkt.Trimmed
	if qb+size > p.cfg.QueueCap && (isData || !p.cfg.ControlBypass) {
		trimmedHere := false
		if p.cfg.Trim && isData {
			// Trim to the header and forward as a control-sized packet.
			pkt.Trimmed = true
			pkt.Size = AckSize
			size = AckSize
			trimmedHere = true
		}
		// The capacity still applies to the trimmed header (unless
		// ControlBypass admits it like other control traffic): without the
		// re-check a full trim-enabled queue grows without bound in
		// AckSize steps.
		if !trimmedHere ||
			(!p.cfg.ControlBypass && qb+size > p.cfg.QueueCap) {
			p.stats.TailDrops++
			if p.net.Observer != nil {
				p.net.Observer.PacketDropped(p.dropLabel, DropTail, pkt)
			}
			p.net.FreePacket(pkt)
			return
		}
		p.stats.Trims++
	}

	if pkt.ECNCapable && !pkt.ECNMarked {
		marked := phantomMark
		if !marked && p.redMax > 0 {
			// RED sees the occupancy including the arriving packet, the same
			// after-add convention as PhantomQueue.OnEnqueue (§5.1): the mark
			// reflects the queue the packet actually joins.
			marked = redDecision(float64(qb+size), p.redMin, p.redMax, p.net.Rand)
		}
		if marked {
			pkt.ECNMarked = true
			p.stats.ECNMarks++
		}
	}

	p.queue.push(pkt)
	qb += size
	p.queuedBytes = qb
	p.stats.EnqueuedPackets++
	p.stats.EnqueuedBytes += uint64(pkt.Size)

	// QCN samples every admitted data packet above the threshold — trimmed
	// data packets included (they still signal offered load at this hop).
	if p.cfg.QCN && pkt.Type == Data && qb > p.qcnThresh {
		p.qcnCount++
		if p.qcnCount%qcnSample == 0 {
			p.sendCnm(pkt)
		}
	}
	// An armed timer will come for this packet in its turn; otherwise serve
	// it now if the wire is free, or wake up when it is.
	if !p.busy {
		if now >= p.busyUntil {
			p.transmit(now)
		} else {
			p.busy = true
			p.txTimer.Reset(p.busyUntil)
		}
	}
}

// sendCnm emits a congestion-notification message straight back to the
// sampled packet's source, carrying the queue's relative overload.
func (p *Port) sendCnm(pkt *Packet) {
	over := float64(p.queuedBytes-p.qcnThresh) / p.qcnRange
	// Clamp to [0, 1]: ControlBypass (and trimming) can push queuedBytes
	// past QueueCap, and the inverted comparison also rejects NaN, so a
	// CC consuming Packet.Feedback never sees a value outside the range.
	if !(over > 0) {
		over = 0
	} else if over > 1 {
		over = 1
	}
	cnm := p.net.AllocPacket()
	cnm.ID = p.net.NextPacketID()
	cnm.Type = Cnm
	cnm.Flow = pkt.Flow
	cnm.Src = p.owner.ID()
	cnm.Dst = pkt.Src
	cnm.Size = AckSize
	cnm.Entropy = p.net.Rand.Uint32()
	cnm.Feedback = over
	p.stats.CnmsSent++
	// The notification is injected at this switch and routed back to the
	// source like any other packet.
	p.owner.HandlePacket(cnm)
}

// transmit starts serializing the head packet at now; callers guarantee the
// wire is free and the queue non-empty. The timer is armed — only if another
// packet is waiting — before the hand-off: a drop inside deliver reaches
// observers, which must see consistent port state.
func (p *Port) transmit(now eventq.Time) {
	// peek+advance instead of a by-value pop: nil the slot through the head
	// pointer so the discard stays inlined (see fifo.advance).
	head := p.queue.peek()
	pkt := *head
	*head = nil
	p.queue.advance()
	p.queuedBytes -= int64(pkt.Size)
	if pkt.Size != p.serSize {
		p.serSize = pkt.Size
		p.serTime = SerializationTime(pkt.Size, p.link.Bandwidth)
	}
	if !p.net.skipBusyAdvance {
		p.busyUntil = now + p.serTime
	}
	p.busy = p.queue.len() > 0
	if p.busy {
		p.txTimer.Reset(p.busyUntil)
	}
	p.link.deliver(pkt, p.serTime)
}

// onTxTimer fires at busyUntil when packets were waiting: the wire is free,
// start on the next one.
func (p *Port) onTxTimer() { p.transmit(p.net.Now()) }
