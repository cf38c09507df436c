package netsim

import (
	"testing"

	"uno/internal/eventq"
)

// dropLog records every drop with its time and reason.
type dropLog struct {
	net   *Network
	seqs  []int64
	at    []eventq.Time
	cause []DropReason
}

func (*dropLog) PacketSent(*Host, *Packet)      {}
func (*dropLog) PacketDelivered(*Link, *Packet) {}
func (d *dropLog) PacketDropped(_ string, r DropReason, p *Packet) {
	d.seqs = append(d.seqs, p.Seq)
	d.at = append(d.at, d.net.Now())
	d.cause = append(d.cause, r)
}

// sampleLog is a loss process that drops nothing and records when it was
// asked.
type sampleLog struct{ at []eventq.Time }

func (s *sampleLog) Drop(now eventq.Time, _ *Packet) bool {
	s.at = append(s.at, now)
	return false
}

// TestLinkStateSampledAtSerializationStart pins the failure rule: a packet
// is lost iff the link is down, or the loss process says so, when its
// serialization starts. A link that fails mid-serialization still carries
// the packet in service; the packets queued behind it are dropped one by one,
// each at its own start time, while the port drains at line rate; after the
// link is restored the next head packet goes through.
func TestLinkStateSampledAtSerializationStart(t *testing.T) {
	const bw = int64(1e9)
	delay := 2 * eventq.Microsecond
	net, _, sw, b := buildPair(t, PortConfig{QueueCap: 1 << 20}, bw, delay)
	port, link := sw.Port(0), sw.Port(0).Link()
	drops := &dropLog{net: net}
	net.Observer = drops
	samples := &sampleLog{}
	link.SetLoss(samples)
	arrivals := map[int64]eventq.Time{}
	b.SetHandler(func(p *Packet) { arrivals[p.Seq] = net.Now() })

	ser := SerializationTime(4096, bw)
	for i := 0; i < 6; i++ {
		port.Enqueue(&Packet{Type: Data, Dst: b.ID(), Size: 4096, Seq: int64(i)})
	}
	// Starts are at 0, ser, 2·ser, ...; the link is down over starts 1–3.
	net.Sched.Schedule(ser/2, func() { link.SetUp(false) })
	net.Sched.Schedule(3*ser+ser/2, func() { link.SetUp(true) })
	net.Sched.Run()

	for _, seq := range []int64{0, 4, 5} {
		if want := eventq.Time(seq+1)*ser + delay; arrivals[seq] != want {
			t.Errorf("packet %d arrived at %v, want %v", seq, arrivals[seq], want)
		}
	}
	if len(arrivals) != 3 {
		t.Errorf("%d packets arrived, want 3 (0 was in service at the failure; 4 and 5 started after the restore)", len(arrivals))
	}
	if len(drops.seqs) != 3 {
		t.Fatalf("%d drops, want 3: %+v", len(drops.seqs), drops)
	}
	for i, seq := range []int64{1, 2, 3} {
		if drops.seqs[i] != seq || drops.cause[i] != DropLink || drops.at[i] != eventq.Time(seq)*ser {
			t.Errorf("drop %d: packet %d, %v at %v; want packet %d, %v at its start %v",
				i, drops.seqs[i], drops.cause[i], drops.at[i], seq, DropLink, eventq.Time(seq)*ser)
		}
	}
	if got := link.Stats().DownDrops; got != 3 {
		t.Errorf("DownDrops = %d, want 3", got)
	}
	// The loss process is consulted only while the link is up, at the
	// packet's serialization start.
	want := []eventq.Time{0, 4 * ser, 5 * ser}
	if len(samples.at) != len(want) {
		t.Fatalf("loss process sampled at %v, want %v", samples.at, want)
	}
	for i := range want {
		if samples.at[i] != want[i] {
			t.Fatalf("loss process sampled at %v, want %v", samples.at, want)
		}
	}
}
