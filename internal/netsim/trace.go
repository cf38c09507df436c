package netsim

import (
	"fmt"
	"io"
)

// DropReason classifies why the fabric discarded a packet.
type DropReason uint8

// Drop reasons.
const (
	DropTail  DropReason = iota // output queue full
	DropLink                    // link administratively down
	DropLoss                    // stochastic loss process
	DropRoute                   // no route at a switch
)

func (r DropReason) String() string {
	switch r {
	case DropTail:
		return "taildrop"
	case DropLink:
		return "linkdown"
	case DropLoss:
		return "loss"
	case DropRoute:
		return "noroute"
	default:
		return "unknown"
	}
}

// Observer receives fabric-level packet events. Attach one to
// Network.Observer for tracing/telemetry; a nil observer costs one branch
// per event. Callbacks run on the simulation goroutine and must not
// retain the packet.
type Observer interface {
	// PacketSent fires when a host injects a packet into its NIC.
	PacketSent(h *Host, p *Packet)
	// PacketDelivered fires when a link hands a packet to its target node.
	PacketDelivered(l *Link, p *Packet)
	// PacketDropped fires when the fabric discards a packet; where names
	// the component ("sw3 port 2", link name, ...).
	PacketDropped(where string, reason DropReason, p *Packet)
}

// CountingObserver tallies events (a ready-made test/telemetry observer).
type CountingObserver struct {
	Sent      uint64
	Delivered uint64
	Dropped   map[DropReason]uint64
}

// NewCountingObserver returns a zeroed counter set.
func NewCountingObserver() *CountingObserver {
	return &CountingObserver{Dropped: make(map[DropReason]uint64)}
}

// PacketSent implements Observer.
func (c *CountingObserver) PacketSent(*Host, *Packet) { c.Sent++ }

// PacketDelivered implements Observer.
func (c *CountingObserver) PacketDelivered(*Link, *Packet) { c.Delivered++ }

// PacketDropped implements Observer.
func (c *CountingObserver) PacketDropped(_ string, r DropReason, _ *Packet) { c.Dropped[r]++ }

// WriterObserver streams one text line per event — a poor man's pcap for
// debugging protocol behaviour. Lines are
//
//	<time> send|recv|drop <detail> flow=<id> type=<t> seq=<n> size=<b>
type WriterObserver struct {
	W   io.Writer
	Net *Network
	// DropsOnly suppresses send/recv lines (drops are usually what you
	// are hunting).
	DropsOnly bool
}

func (w *WriterObserver) line(kind, detail string, p *Packet) {
	fmt.Fprintf(w.W, "%v %s %s flow=%d type=%v seq=%d size=%d\n",
		w.Net.Now(), kind, detail, p.Flow, p.Type, p.Seq, p.Size)
}

// PacketSent implements Observer.
func (w *WriterObserver) PacketSent(h *Host, p *Packet) {
	if !w.DropsOnly {
		w.line("send", h.Name(), p)
	}
}

// PacketDelivered implements Observer.
func (w *WriterObserver) PacketDelivered(l *Link, p *Packet) {
	if !w.DropsOnly {
		w.line("recv", l.Name, p)
	}
}

// PacketDropped implements Observer.
func (w *WriterObserver) PacketDropped(where string, r DropReason, p *Packet) {
	w.line("drop", where+" ("+r.String()+")", p)
}
