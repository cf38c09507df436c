package netsim

import (
	"fmt"

	"uno/internal/eventq"
)

// Router decides, per switch, which output port a packet takes. Package
// topo provides the fat-tree implementation with ECMP groups.
type Router interface {
	// Route returns the output port index for p at sw, or -1 to drop
	// (no route).
	Route(sw *Switch, p *Packet) int
}

// Switch is an output-queued switch: routing picks an output port and the
// packet immediately joins that port's queue (the switching fabric itself
// adds no delay, as in htsim).
type Switch struct {
	net    *Network
	id     NodeID
	name   string
	router Router
	ports  []*Port

	// Tier is topology metadata (topo.TierEdge etc.) routers may use.
	Tier int
	// DC is the datacenter index the switch belongs to.
	DC int
	// Meta carries arbitrary topology coordinates (pod, index in tier).
	Meta [2]int

	noRouteDrops uint64
}

// NewSwitch registers a new switch on the network.
func NewSwitch(net *Network, name string, router Router) *Switch {
	s := &Switch{net: net, name: name, router: router}
	s.id = net.register(s)
	return s
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// SetRouter replaces the switch's routing function.
func (s *Switch) SetRouter(r Router) { s.router = r }

// AddPort attaches an output port toward node to and returns its index and
// the created link.
func (s *Switch) AddPort(to Node, bandwidth int64, delay eventq.Time, cfg PortConfig) (int, *Link) {
	link := newLink(s.net, to, bandwidth, delay, fmt.Sprintf("%s→%s", s.name, to.Name()))
	port := newPort(s.net, s, link, cfg)
	s.ports = append(s.ports, port)
	return len(s.ports) - 1, link
}

// Port returns output port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// NumPorts returns the number of output ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// NoRouteDrops counts packets dropped for lack of a route.
func (s *Switch) NoRouteDrops() uint64 { return s.noRouteDrops }

// HandlePacket implements Node: route and enqueue.
func (s *Switch) HandlePacket(p *Packet) {
	countHop(p)
	idx := s.router.Route(s, p)
	if idx < 0 || idx >= len(s.ports) {
		s.noRouteDrops++
		if s.net.Observer != nil {
			s.net.Observer.PacketDropped(s.name, DropRoute, p)
		}
		s.net.FreePacket(p)
		return
	}
	s.ports[idx].Enqueue(p)
}
