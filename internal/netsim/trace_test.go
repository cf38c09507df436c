package netsim

import (
	"strings"
	"testing"

	"uno/internal/eventq"
)

func TestCountingObserverSeesAllEvents(t *testing.T) {
	net, a, sw, b := buildPair(t, PortConfig{QueueCap: 4100, ControlBypass: true}, 100e9, eventq.Microsecond)
	obs := NewCountingObserver()
	net.Observer = obs
	b.SetHandler(func(p *Packet) {})

	// Three sends fit (one transmitting, one queued, one dropped at the
	// switch port when forwarded)? Use direct enqueue for deterministic
	// drops plus host sends for the send counter.
	for i := 0; i < 2; i++ {
		a.Send(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096})
	}
	net.Sched.Run()
	if obs.Sent != 2 {
		t.Fatalf("sent = %d", obs.Sent)
	}
	// Each packet crosses two links (NIC link + switch port link).
	if obs.Delivered != 4 {
		t.Fatalf("delivered = %d", obs.Delivered)
	}

	// Tail drop visibility.
	for i := 0; i < 5; i++ {
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096})
	}
	net.Sched.Run()
	if obs.Dropped[DropTail] == 0 {
		t.Fatal("tail drops not observed")
	}

	// Link-down drop visibility.
	sw.Port(0).Link().SetUp(false)
	a.Send(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 64})
	net.Sched.Run()
	if obs.Dropped[DropLink] != 1 {
		t.Fatalf("link drops = %d", obs.Dropped[DropLink])
	}
}

func TestWriterObserverFormatsLines(t *testing.T) {
	net, a, _, b := buildPair(t, defaultPort(), 100e9, eventq.Microsecond)
	var buf strings.Builder
	net.Observer = &WriterObserver{W: &buf, Net: net}
	b.SetHandler(func(p *Packet) {})
	a.Send(&Packet{Type: Data, Flow: 9, Src: a.ID(), Dst: b.ID(), Size: 4096, Seq: 3})
	net.Sched.Run()
	out := buf.String()
	for _, want := range []string{"send a", "recv", "flow=9", "seq=3", "type=data"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestWriterObserverDropsOnly(t *testing.T) {
	net, a, sw, b := buildPair(t, PortConfig{QueueCap: 4100, ControlBypass: true}, 100e9, eventq.Microsecond)
	var buf strings.Builder
	net.Observer = &WriterObserver{W: &buf, Net: net, DropsOnly: true}
	b.SetHandler(func(p *Packet) {})
	for i := 0; i < 5; i++ {
		sw.Port(0).Enqueue(&Packet{Type: Data, Src: a.ID(), Dst: b.ID(), Size: 4096})
	}
	net.Sched.Run()
	out := buf.String()
	if strings.Contains(out, "send") || strings.Contains(out, "recv ") {
		t.Fatalf("DropsOnly leaked non-drop lines:\n%s", out)
	}
	if !strings.Contains(out, "taildrop") {
		t.Fatalf("drop lines missing:\n%s", out)
	}
}

func TestDropReasonStrings(t *testing.T) {
	want := map[DropReason]string{
		DropTail: "taildrop", DropLink: "linkdown", DropLoss: "loss",
		DropRoute: "noroute", DropReason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}
