package netsim

import (
	"fmt"
	"testing"

	"uno/internal/eventq"
	"uno/internal/rng"
)

// refPort is the eager transmitter the port shipped with before the
// serialization-start hand-off, kept as the reference the production port is
// checked against: kick arms a transmit-done timer for the head packet, and
// onTxDone puts it on the wire and kicks again — two events per hop, busy or
// not. It shares no code with Port: admission is spelled out in its plainest
// form and the queue is a plain slice.
type refPort struct {
	sched *eventq.Scheduler
	cfg   PortConfig

	queue   []*Packet
	bytes   int64
	busy    bool
	txPkt   *Packet
	txTimer *eventq.Timer

	stats PortStats
	out   []portOutcome
}

// portOutcome is everything the oracle compares per scripted packet.
type portOutcome struct {
	seenBytes      int64 // queue occupancy the arrival found
	dropped        bool
	trimmed        bool
	depart, arrive eventq.Time // end of serialization, arrival downstream
}

func newRefPort(sched *eventq.Scheduler, cfg PortConfig, n int) *refPort {
	r := &refPort{sched: sched, cfg: cfg, out: make([]portOutcome, n)}
	r.txTimer = sched.NewTimer(r.onTxDone)
	return r
}

func (r *refPort) Enqueue(pkt *Packet) {
	o := &r.out[pkt.Seq]
	o.seenBytes = r.bytes
	isData := pkt.Type == Data && !pkt.Trimmed
	if r.bytes+int64(pkt.Size) > r.cfg.QueueCap && (isData || !r.cfg.ControlBypass) {
		if !r.cfg.Trim || !isData {
			r.stats.TailDrops++
			o.dropped = true
			return
		}
		pkt.Trimmed, pkt.Size = true, AckSize
		if !r.cfg.ControlBypass && r.bytes+AckSize > r.cfg.QueueCap {
			r.stats.TailDrops++
			o.dropped = true
			return
		}
		r.stats.Trims++
		o.trimmed = true
	}
	r.queue = append(r.queue, pkt)
	r.bytes += int64(pkt.Size)
	r.stats.EnqueuedPackets++
	r.stats.EnqueuedBytes += uint64(pkt.Size)
	r.kick()
}

// kick starts the transmitter if it is idle and work is queued.
func (r *refPort) kick() {
	if r.busy || len(r.queue) == 0 {
		return
	}
	pkt := r.queue[0]
	r.queue = r.queue[1:]
	r.bytes -= int64(pkt.Size)
	r.busy, r.txPkt = true, pkt
	r.txTimer.ResetAfter(SerializationTime(pkt.Size, oracleBW))
}

// onTxDone fires when the current packet's serialization completes: it
// leaves for the far end, one propagation delay away, and the next starts.
func (r *refPort) onTxDone() {
	o := &r.out[r.txPkt.Seq]
	o.depart = r.sched.Now()
	o.arrive = o.depart + oracleDelay
	r.busy, r.txPkt = false, nil
	r.kick()
}

// arrive is the reference's script event. An arrival in the very picosecond
// in which the wire frees on an empty queue must not find the reference
// still busy: the production port has no completion event to race with and
// serves such an arrival at once, so the reference lets its own completion
// run first. (With packets waiting, both ports take the arrival first: it
// was scheduled before either timer was armed.)
func (r *refPort) arrive(x any) {
	if r.busy && len(r.queue) == 0 && r.txTimer.At() == r.sched.Now() {
		r.sched.ScheduleArg(r.sched.Now(), r.arrive, x)
		return
	}
	r.Enqueue(x.(*Packet))
}

// portRecorder observes the production port under the same script.
type portRecorder struct {
	net *Network
	out []portOutcome
}

func (*portRecorder) PacketSent(*Host, *Packet) {}

func (pr *portRecorder) PacketDelivered(_ *Link, p *Packet) {
	o := &pr.out[p.Seq]
	o.arrive = pr.net.Now()
	o.depart = o.arrive - oracleDelay
	o.trimmed = p.Trimmed
}

func (pr *portRecorder) PacketDropped(_ string, _ DropReason, p *Packet) {
	pr.out[p.Seq].dropped = true
}

// scriptedArrival is one line of an arrival script.
type scriptedArrival struct {
	at  eventq.Time
	pkt Packet
}

const (
	oracleBW    = int64(100e9)
	oracleDelay = 700 * eventq.Nanosecond
	oracleMTU   = 4096
)

// oraclePort builds the production side of every test in this file: one
// switch port at oracleBW toward a sink host oracleDelay away.
func oraclePort(cfg PortConfig) (*Network, *Port, *Host) {
	net := New(1)
	sw := NewSwitch(net, "sw", nil)
	sink := NewHost(net, "sink", 0)
	idx, _ := sw.AddPort(sink, oracleBW, oracleDelay, cfg)
	return net, sw.Port(idx), sink
}

// randomScript draws n arrivals: MTU data and 64 B control packets, with
// gaps of zero (same-picosecond bursts), exact
// multiples of a serialization time (arrival/completion ties), and uniform
// draws up to four MTU times — so the port runs idle, back to back and
// overloaded within one script.
func randomScript(r *rng.Rand, n int) []scriptedArrival {
	serMTU := SerializationTime(oracleMTU, oracleBW)
	serAck := SerializationTime(AckSize, oracleBW)
	script := make([]scriptedArrival, n)
	var at eventq.Time
	burst := 0
	for i := range script {
		switch {
		case burst > 0:
			burst--
		case r.Intn(8) == 0:
			burst = 2 + r.Intn(12)
		default:
			switch r.Intn(4) {
			case 0:
				at += serMTU * eventq.Time(r.Intn(3))
			case 1:
				at += serAck * eventq.Time(1+r.Intn(70))
			default:
				at += eventq.Time(r.Int63n(int64(4 * serMTU)))
			}
		}
		pkt := Packet{Type: Data, Size: oracleMTU, Seq: int64(i)}
		if r.Intn(3) == 0 {
			pkt.Type, pkt.Size = Ack, AckSize
		}
		script[i] = scriptedArrival{at: at, pkt: pkt}
	}
	return script
}

// runProduction drives script through a real switch port and returns what
// happened to each packet and the port counters.
func runProduction(cfg PortConfig, script []scriptedArrival) ([]portOutcome, PortStats) {
	net, port, _ := oraclePort(cfg)
	rec := &portRecorder{net: net, out: make([]portOutcome, len(script))}
	net.Observer = rec
	arrive := func(x any) {
		p := x.(*Packet)
		rec.out[p.Seq].seenBytes = port.QueuedBytes()
		port.Enqueue(p)
	}
	pkts := make([]Packet, len(script))
	for i, a := range script {
		pkts[i] = a.pkt
		net.Sched.ScheduleArg(a.at, arrive, &pkts[i])
	}
	net.Sched.Run()
	return rec.out, port.Stats()
}

func runReference(cfg PortConfig, script []scriptedArrival) ([]portOutcome, PortStats) {
	sched := eventq.New()
	ref := newRefPort(sched, cfg, len(script))
	pkts := make([]Packet, len(script))
	for i, a := range script {
		pkts[i] = a.pkt
		sched.ScheduleArg(a.at, ref.arrive, &pkts[i])
	}
	sched.Run()
	return ref.out, ref.stats
}

// TestPortTimingOracle: the serialization-start hand-off must be invisible
// on a port taken in isolation. Every scripted packet sees the same queue
// occupancy, meets the same drop or trim decision, and departs and arrives
// at the same picosecond as under the eager reference, with trimming and
// control bypass on a queue that fills, and every departure obeys the FIFO
// recurrence.
func TestPortTimingOracle(t *testing.T) {
	const queueCap = 6 * oracleMTU
	configs := map[string]PortConfig{
		"fifo":             {QueueCap: queueCap},
		"fifo-bypass":      {QueueCap: queueCap, ControlBypass: true},
		"fifo-trim":        {QueueCap: queueCap, Trim: true},
		"fifo-trim-bypass": {QueueCap: queueCap, Trim: true, ControlBypass: true},
	}
	for name, cfg := range configs {
		var drops, trims, waits int
		for seed := uint64(1); seed <= 20; seed++ {
			script := randomScript(rng.New(seed), 400)
			got, gotStats := runProduction(cfg, script)
			want, wantStats := runReference(cfg, script)
			for i := range script {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d packet %d (at %v, %d B): port %+v, reference %+v",
						name, seed, i, script[i].at, script[i].pkt.Size, got[i], want[i])
				}
			}
			if gotStats != wantStats {
				t.Fatalf("%s seed %d: PortStats %+v, reference %+v", name, seed, gotStats, wantStats)
			}
			checkFIFORecurrence(t, fmt.Sprintf("%s seed %d", name, seed), script, got)
			drops += int(gotStats.TailDrops)
			trims += int(gotStats.Trims)
			for i := range got {
				if !got[i].dropped && got[i].seenBytes > 0 {
					waits++
				}
			}
		}
		// The scripts must reach the branches the oracle claims to cover.
		wantDrops := !(cfg.Trim && cfg.ControlBypass) // trimmed headers bypass a full queue
		if (wantDrops && drops == 0) || waits == 0 || (cfg.Trim && trims == 0) {
			t.Errorf("%s: scripts too gentle: %d drops, %d trims, %d queued arrivals", name, drops, trims, waits)
		}
	}
}

// checkFIFORecurrence asserts the closed form a FIFO port obeys: admitted
// packet i starts serializing at max(enq_i, depart_{i-1}).
func checkFIFORecurrence(t *testing.T, label string, script []scriptedArrival, out []portOutcome) {
	t.Helper()
	var prevDepart eventq.Time
	for i, o := range out {
		if o.dropped {
			continue
		}
		size := script[i].pkt.Size
		if o.trimmed {
			size = AckSize
		}
		start := max(script[i].at, prevDepart)
		if want := start + SerializationTime(size, oracleBW); o.depart != want {
			t.Fatalf("%s packet %d: departs at %v, recurrence says %v", label, i, o.depart, want)
		}
		prevDepart = o.depart
	}
}

// TestPortEventEconomy pins what the hand-off is for. Packets that each find
// the wire free cost one scheduler event apiece, the arrival, and the port
// schedules nothing; a burst of n costs n arrivals plus the n-1 transmit
// events that start each waiting packet.
func TestPortEventEconomy(t *testing.T) {
	const n = 50
	build := func() (*Network, *Port, *int) {
		net, port, sink := oraclePort(PortConfig{QueueCap: 1 << 20})
		delivered := new(int)
		sink.SetHandler(func(*Packet) { *delivered++ })
		return net, port, delivered
	}

	net, port, delivered := build()
	gap := SerializationTime(oracleMTU, oracleBW) // exactly back to back: the wire is free again
	for i := 0; i < n; i++ {
		net.Sched.RunUntil(eventq.Time(i) * gap)
		port.Enqueue(&Packet{Type: Data, Size: oracleMTU})
		if port.busy || port.QueuedPackets() != 0 {
			t.Fatalf("spaced packet %d: timer armed=%v, %d queued; want an idle port", i, port.busy, port.QueuedPackets())
		}
	}
	net.Sched.Run()
	if got := net.Sched.Executed(); got != n || *delivered != n {
		t.Fatalf("spaced: %d events for %d deliveries, want %d arrivals and no port events", got, *delivered, n)
	}

	net, port, delivered = build()
	for i := 0; i < n; i++ {
		port.Enqueue(&Packet{Type: Data, Size: oracleMTU})
	}
	net.Sched.Run()
	if got := net.Sched.Executed(); got != 2*n-1 || *delivered != n {
		t.Fatalf("burst: %d events for %d deliveries, want %d arrivals + %d port events", got, *delivered, n, n-1)
	}
}

// TestQueuedPacketPathAllocFree is the queued-path half of the allocation
// budget (TestSteadyStatePacketAllocFree covers the idle port): a burst that
// waits in the queue, arms the transmit timer and drains allocates nothing
// once the pools are warm.
func TestQueuedPacketPathAllocFree(t *testing.T) {
	net, port, sink := oraclePort(PortConfig{QueueCap: 1 << 20})
	sink.SetHandler(func(*Packet) {})
	burst := func() {
		for i := 0; i < 16; i++ {
			p := net.AllocPacket()
			p.Type, p.Size = Data, oracleMTU
			port.Enqueue(p)
		}
		net.Sched.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("queued packet path allocates %v objects per burst, want 0", allocs)
	}
}
