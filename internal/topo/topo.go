// Package topo builds the paper's evaluation topology (§5.1): two k-ary
// fat-tree datacenters (k = 8: 16 core switches, 8 pods of 4 aggregation +
// 4 edge switches, 4 servers per edge switch → 128 hosts per DC), each DC
// fronted by one border switch attached to every core switch, and the two
// border switches interconnected by eight parallel links (800 Gb/s of
// inter-DC capacity at the default 100 Gb/s line rate).
//
// Routing is standard fat-tree up/down with ECMP: at every point where
// multiple equal-cost ports exist, the choice is a hash of the packet's
// entropy field, so load-balancing schemes steer packets purely by
// rewriting entropy.
package topo

import (
	"fmt"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// Switch tiers (stored in netsim.Switch.Tier).
const (
	TierEdge = iota
	TierAgg
	TierCore
	TierBorder
)

// Config parameterizes the dual-DC topology. DefaultConfig returns the
// paper's Table 2 values.
type Config struct {
	K      int // fat-tree arity; pods = K, hosts = K³/4 per DC
	NumDCs int // number of datacenters (the paper uses 2)

	LinkBps     int64 // line rate of every link, bits per second
	BorderLinks int   // parallel links between each pair of border switches

	// IntraLinkDelay is the one-way propagation delay of every link inside
	// a DC (host-edge, edge-agg, agg-core, core-border).
	IntraLinkDelay eventq.Time
	// InterLinkDelay is the one-way propagation delay of each
	// border-to-border link.
	InterLinkDelay eventq.Time

	// Queue capacities per output port, in bytes. Intra applies to all
	// ports inside a DC; Inter applies to the border switches' inter-DC
	// ports (Fig 12 sets them differently).
	QueueCapIntra int64
	QueueCapInter int64

	// PhantomEnabled gives every switch port a phantom queue (§4.1.3)
	// sized and marking as the phantom constants below say.
	PhantomEnabled bool

	// Trimming enables NDP-style packet trimming on every switch port —
	// an extension beyond the paper's design (its §6 argues trimming-based
	// transports are impractical across datacenters because the loss
	// notification still pays the WAN RTT; this knob lets experiments
	// demonstrate exactly that).
	Trimming bool

	// QCN enables QCN congestion-notification messages on every switch
	// port of the source-side fabric, including the border uplinks (all of
	// which sit inside the source datacenter — exactly the "congestion
	// near source" Annulus reacts to): the substrate for the add-on the
	// paper's footnote 4 defers to future work. The ports derive their
	// notification threshold from their capacity (netsim.PortConfig.QCN).
	QCN bool
}

// The fabric's marking constants.
const (
	// redMinFrac and redMaxFrac are the RED marking thresholds as
	// fractions of a queue's capacity (Table 2: 25 % / 75 %). The phantom
	// queues' band ends at redMaxFrac of the phantom size too.
	redMinFrac = 0.25
	redMaxFrac = 0.75

	// phantomDrainFrac is the phantom queues' drain rate as a fraction of
	// line rate (Table 2).
	phantomDrainFrac = 0.9
	// Phantom sizes: the virtual queue's marking band must be long enough
	// that the slowest (inter-DC) control loop can regulate within it; a
	// band crossed in less than an inter-DC RTT pins the ambient marking
	// fraction near saturation and crushes short-RTT flows' AIMD
	// equilibria below one packet. The paper does not report its phantom
	// sizes; these follow from that constraint (EXPERIMENTS.md deviation 4).
	phantomSizeIntra = 4 << 20
	phantomSizeInter = 16 << 20
	// phantomMinFrac is the phantom queues' RED marking floor as a
	// fraction of the phantom size; see portConfig for why it sits far
	// below the physical queues' 25 %.
	phantomMinFrac = 0.10
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.K < 2 || c.K%2 != 0:
		return fmt.Errorf("topo: K must be even and >= 2, got %d", c.K)
	case c.NumDCs < 1:
		return fmt.Errorf("topo: NumDCs must be >= 1, got %d", c.NumDCs)
	case c.LinkBps <= 0:
		return fmt.Errorf("topo: LinkBps must be positive")
	case c.NumDCs > 1 && c.BorderLinks <= 0:
		return fmt.Errorf("topo: BorderLinks must be positive with multiple DCs")
	case c.QueueCapIntra <= 0 || c.QueueCapInter <= 0:
		return fmt.Errorf("topo: queue capacities must be positive")
	case c.IntraLinkDelay < 0 || c.InterLinkDelay < 0:
		return fmt.Errorf("topo: link delays must not be negative")
	case c.PhantomEnabled && int64(float64(c.LinkBps)*phantomDrainFrac) <= 0:
		return fmt.Errorf("topo: LinkBps %d gives phantom queues no drain rate", c.LinkBps)
	}
	return nil
}

// DefaultConfig returns the paper's default parameters: k = 8 fat-trees,
// two DCs, 100 Gb/s links, 1 MiB port buffers, and link delays tuned so
// the base intra-DC RTT is ≈14 µs and the inter-DC RTT ≈2 ms (Table 2).
// Phantom queues and QCN are off.
func DefaultConfig() Config {
	return Config{
		K:              8,
		NumDCs:         2,
		LinkBps:        100e9,
		BorderLinks:    8,
		IntraLinkDelay: 1 * eventq.Microsecond,
		InterLinkDelay: 982 * eventq.Microsecond,
		QueueCapIntra:  1 << 20,
		QueueCapInter:  1 << 20,
	}
}

// PodsPerDC, switches-per-tier helpers.
func (c Config) pods() int         { return c.K }
func (c Config) perPod() int       { return c.K / 2 } // edges or aggs per pod
func (c Config) hostsPerEdge() int { return c.K / 2 }
func (c Config) cores() int        { return (c.K / 2) * (c.K / 2) }

// HostsPerDC returns the number of servers in each datacenter.
func (c Config) HostsPerDC() int { return c.pods() * c.perPod() * c.hostsPerEdge() }

// HostCoord locates a host in the topology.
type HostCoord struct {
	DC, Pod, Edge, Idx int
}

// DC is one datacenter's switching fabric.
type DC struct {
	Edges  [][]*netsim.Switch // [pod][i]
	Aggs   [][]*netsim.Switch // [pod][i]
	Cores  []*netsim.Switch
	Border *netsim.Switch // nil for single-DC configs
	Hosts  []*netsim.Host // pod-major, edge-major order
}

// InterLink is one directed border-to-border link.
type InterLink struct {
	FromDC, ToDC int
	Index        int // 0..BorderLinks-1
	Link         *netsim.Link
	PortIdx      int // output port index on the source border switch
}

// DualDC is the built topology.
type DualDC struct {
	Cfg Config

	DCs   []*DC
	Hosts []*netsim.Host // all hosts, DC-major order

	// coords is a dense table indexed by NodeID (hosts and switches draw
	// ids from the same space, so non-host slots carry DC == -1). Routing
	// reads it once per hop per packet; a dense index keeps that lookup a
	// bounds-checked load instead of a map hash.
	coords []HostCoord

	// Inter holds all directed border-to-border links, grouped by
	// direction for failure injection: Inter[from][to][i].
	Inter map[int]map[int][]InterLink
}

// Build constructs the topology on the given network.
func Build(net *netsim.Network, cfg Config) (*DualDC, error) {
	return build(cfg, func(int) *netsim.Network { return net }, nil)
}

// BuildCluster constructs the topology on cl's shards. With one shard per
// DC, DC d's entire fabric (hosts, edge/agg/core/border switches, and every
// intra-DC link) lives on cl.Shard(d), and each border-to-border link is
// bound as a cross-shard link whose delay bounds the cluster's lookahead
// window, so it must be positive. A one-shard cluster holds every DC and
// binds no cross link. The node-creation order is Build's either way, so
// NodeIDs and the routing coord table match the single-network build
// exactly.
func BuildCluster(cl *netsim.Cluster, cfg Config) (*DualDC, error) {
	netFor := cl.Shard
	switch cl.Shards() {
	case 1:
		netFor = func(int) *netsim.Network { return cl.Shard(0) }
	case cfg.NumDCs:
		if cfg.InterLinkDelay == 0 {
			return nil, fmt.Errorf("topo: a zero InterLinkDelay leaves per-DC shards no lookahead window")
		}
	default:
		return nil, fmt.Errorf("topo: cluster has %d shards, config has %d DCs (need one shard, or one per DC)",
			cl.Shards(), cfg.NumDCs)
	}
	return build(cfg, netFor, cl)
}

// build is the shared topology constructor: netFor selects the network
// each DC's nodes are created on, and cl binds the inter-DC links whose two
// ends it puts on different networks.
func build(cfg Config, netFor func(dc int) *netsim.Network, cl *netsim.Cluster) (*DualDC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &DualDC{Cfg: cfg, Inter: make(map[int]map[int][]InterLink)}
	router := newFatTreeRouter(t)

	intraPort := func() netsim.PortConfig { return t.portConfig(false) }
	interPort := func() netsim.PortConfig { return t.portConfig(true) }

	for dc := 0; dc < cfg.NumDCs; dc++ {
		net := netFor(dc)
		d := &DC{}
		// Switches.
		d.Edges = make([][]*netsim.Switch, cfg.pods())
		d.Aggs = make([][]*netsim.Switch, cfg.pods())
		for p := 0; p < cfg.pods(); p++ {
			for i := 0; i < cfg.perPod(); i++ {
				e := netsim.NewSwitch(net, fmt.Sprintf("dc%d.p%d.edge%d", dc, p, i), router)
				e.Tier, e.DC, e.Meta = TierEdge, dc, [2]int{p, i}
				d.Edges[p] = append(d.Edges[p], e)
				a := netsim.NewSwitch(net, fmt.Sprintf("dc%d.p%d.agg%d", dc, p, i), router)
				a.Tier, a.DC, a.Meta = TierAgg, dc, [2]int{p, i}
				d.Aggs[p] = append(d.Aggs[p], a)
			}
		}
		for c := 0; c < cfg.cores(); c++ {
			s := netsim.NewSwitch(net, fmt.Sprintf("dc%d.core%d", dc, c), router)
			s.Tier, s.DC, s.Meta = TierCore, dc, [2]int{c, 0}
			d.Cores = append(d.Cores, s)
		}
		if cfg.NumDCs > 1 {
			b := netsim.NewSwitch(net, fmt.Sprintf("dc%d.border", dc), router)
			b.Tier, b.DC = TierBorder, dc
			d.Border = b
		}

		// Hosts and host-edge links.
		for p := 0; p < cfg.pods(); p++ {
			for e := 0; e < cfg.perPod(); e++ {
				edge := d.Edges[p][e]
				for hIdx := 0; hIdx < cfg.hostsPerEdge(); hIdx++ {
					h := netsim.NewHost(net, fmt.Sprintf("dc%d.p%d.e%d.h%d", dc, p, e, hIdx), dc)
					h.AttachNIC(edge, cfg.LinkBps, cfg.IntraLinkDelay)
					// Edge ports 0..hostsPerEdge-1 are the host downlinks.
					edge.AddPort(h, cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
					d.Hosts = append(d.Hosts, h)
					t.Hosts = append(t.Hosts, h)
					t.setCoord(h.ID(), HostCoord{DC: dc, Pod: p, Edge: e, Idx: hIdx})
				}
			}
		}

		// Edge-agg links (full bipartite within a pod). Edge ports
		// hostsPerEdge..hostsPerEdge+perPod-1 are agg uplinks; agg ports
		// 0..perPod-1 are edge downlinks.
		for p := 0; p < cfg.pods(); p++ {
			for e := 0; e < cfg.perPod(); e++ {
				for a := 0; a < cfg.perPod(); a++ {
					d.Edges[p][e].AddPort(d.Aggs[p][a], cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
				}
			}
			for a := 0; a < cfg.perPod(); a++ {
				for e := 0; e < cfg.perPod(); e++ {
					d.Aggs[p][a].AddPort(d.Edges[p][e], cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
				}
			}
		}

		// Agg-core links: agg i connects to cores i*(k/2) .. i*(k/2)+k/2-1.
		// Agg ports perPod..perPod+k/2-1 are core uplinks; core ports
		// 0..pods-1 are per-pod downlinks (to agg group c/(k/2)).
		for p := 0; p < cfg.pods(); p++ {
			for a := 0; a < cfg.perPod(); a++ {
				for j := 0; j < cfg.perPod(); j++ {
					core := d.Cores[a*cfg.perPod()+j]
					d.Aggs[p][a].AddPort(core, cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
				}
			}
		}
		for c := 0; c < cfg.cores(); c++ {
			group := c / cfg.perPod()
			for p := 0; p < cfg.pods(); p++ {
				d.Cores[c].AddPort(d.Aggs[p][group], cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
			}
		}

		// Core-border links: core port index pods() is the border uplink;
		// border ports 0..cores-1 are the core downlinks.
		if d.Border != nil {
			for c := 0; c < cfg.cores(); c++ {
				d.Cores[c].AddPort(d.Border, cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
			}
			for c := 0; c < cfg.cores(); c++ {
				d.Border.AddPort(d.Cores[c], cfg.LinkBps, cfg.IntraLinkDelay, intraPort())
			}
		}

		t.DCs = append(t.DCs, d)
	}

	// Border-to-border inter-DC links. On each border switch, ports
	// cores().. are the inter-DC uplinks, grouped by destination DC in
	// ascending order (skipping self).
	if cfg.NumDCs > 1 {
		for from := 0; from < cfg.NumDCs; from++ {
			t.Inter[from] = make(map[int][]InterLink)
			for to := 0; to < cfg.NumDCs; to++ {
				if to == from {
					continue
				}
				for i := 0; i < cfg.BorderLinks; i++ {
					idx, link := t.DCs[from].Border.AddPort(
						t.DCs[to].Border, cfg.LinkBps, cfg.InterLinkDelay, interPort())
					if rx := netFor(to); rx != netFor(from) {
						cl.BindCross(link, rx)
					}
					t.Inter[from][to] = append(t.Inter[from][to], InterLink{
						FromDC: from, ToDC: to, Index: i, Link: link, PortIdx: idx,
					})
				}
			}
		}
	}
	return t, nil
}

// MustBuild is Build for statically known-good configurations.
func MustBuild(net *netsim.Network, cfg Config) *DualDC {
	t, err := Build(net, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// portConfig builds the PortConfig for an intra-DC or inter-DC port.
func (t *DualDC) portConfig(inter bool) netsim.PortConfig {
	cfg := t.Cfg
	capBytes := cfg.QueueCapIntra
	phantomSize := int64(phantomSizeIntra)
	if inter {
		capBytes = cfg.QueueCapInter
		phantomSize = phantomSizeInter
	}
	pc := netsim.PortConfig{
		QueueCap:      capBytes,
		MarkMin:       int64(float64(capBytes) * redMinFrac),
		MarkMax:       int64(float64(capBytes) * redMaxFrac),
		ControlBypass: true,
		Trim:          cfg.Trimming,
		QCN:           cfg.QCN,
	}
	if cfg.PhantomEnabled {
		// The phantom queue’s RED band starts low (phantomMinFrac, not the
		// physical queues' 25%): a virtual queue drains its overhang past
		// the threshold at only (1-drain)×line rate, so a high threshold
		// keeps marking long after senders have already yielded and
		// drives deep under-utilization sawtooths. A low threshold with a
		// wide band gives a small marking probability near equilibrium —
		// the gentle, self-scaling signal phantom queues are meant to be.
		pc.Phantom = netsim.NewPhantomQueue(
			int64(float64(cfg.LinkBps)*phantomDrainFrac),
			phantomSize,
			int64(float64(phantomSize)*phantomMinFrac),
			int64(float64(phantomSize)*redMaxFrac),
		)
	}
	return pc
}

// setCoord records a host's coordinates, growing the dense table with
// DC == -1 sentinels for the switch ids interleaved among host ids.
func (t *DualDC) setCoord(id netsim.NodeID, c HostCoord) {
	for int(id) >= len(t.coords) {
		t.coords = append(t.coords, HostCoord{DC: -1})
	}
	t.coords[id] = c
}

// Coord returns the coordinates of host id. It panics for unknown ids.
func (t *DualDC) Coord(id netsim.NodeID) HostCoord {
	if int(id) < len(t.coords) {
		if c := t.coords[id]; c.DC >= 0 {
			return c
		}
	}
	panic(fmt.Sprintf("topo: node %d is not a host", id))
}

// Host returns the i-th host in DC-major order.
func (t *DualDC) Host(i int) *netsim.Host { return t.Hosts[i] }

// SameDC reports whether both hosts are in the same datacenter.
func (t *DualDC) SameDC(a, b netsim.NodeID) bool {
	return t.Coord(a).DC == t.Coord(b).DC
}

// PathHops returns the number of store-and-forward hops (serializations)
// on the up/down path between two hosts, including the sender's NIC.
func (t *DualDC) PathHops(src, dst netsim.NodeID) int {
	a, b := t.Coord(src), t.Coord(dst)
	switch {
	case a == b:
		return 0
	case a.DC != b.DC:
		return 9 // NIC, edge, agg, core, border | border, core, agg, edge
	case a.Pod != b.Pod:
		return 6 // NIC, edge, agg, core, agg, edge
	case a.Edge != b.Edge:
		return 4 // NIC, edge, agg, edge
	default:
		return 2 // NIC, edge
	}
}

// propDelayOneWay returns the total one-way propagation delay between two
// hosts along a shortest up/down path.
func (t *DualDC) propDelayOneWay(src, dst netsim.NodeID) eventq.Time {
	a, b := t.Coord(src), t.Coord(dst)
	intra := t.Cfg.IntraLinkDelay
	switch {
	case a == b:
		return 0
	case a.DC != b.DC:
		return 8*intra + t.Cfg.InterLinkDelay
	case a.Pod != b.Pod:
		return 6 * intra
	case a.Edge != b.Edge:
		return 4 * intra
	default:
		return 2 * intra
	}
}

// BaseRTT returns the unloaded round-trip time between two hosts for a
// dataSize-byte packet acknowledged by an ackSize-byte packet, accounting
// for propagation and per-hop store-and-forward serialization.
func (t *DualDC) BaseRTT(src, dst netsim.NodeID, dataSize, ackSize int) eventq.Time {
	hops := t.PathHops(src, dst)
	prop := 2 * t.propDelayOneWay(src, dst)
	ser := eventq.Time(hops) * (netsim.SerializationTime(dataSize, t.Cfg.LinkBps) +
		netsim.SerializationTime(ackSize, t.Cfg.LinkBps))
	return prop + ser
}

// IntraRTT returns the worst-case unloaded intra-DC RTT for MTU-sized data
// packets — the "intra-DC RTT" knob of the paper (≈14 µs at defaults).
func (t *DualDC) IntraRTT(mtu int) eventq.Time {
	return 12*t.Cfg.IntraLinkDelay +
		6*(netsim.SerializationTime(mtu, t.Cfg.LinkBps)+netsim.SerializationTime(netsim.AckSize, t.Cfg.LinkBps))
}

// InterRTT returns the unloaded inter-DC RTT for MTU-sized data packets
// (≈2 ms at defaults).
func (t *DualDC) InterRTT(mtu int) eventq.Time {
	return 16*t.Cfg.IntraLinkDelay + 2*t.Cfg.InterLinkDelay +
		9*(netsim.SerializationTime(mtu, t.Cfg.LinkBps)+netsim.SerializationTime(netsim.AckSize, t.Cfg.LinkBps))
}

// InterLinkFor returns the directed inter-DC links from one DC to another.
func (t *DualDC) InterLinkFor(from, to int) []InterLink {
	return t.Inter[from][to]
}

// FailBorderLink takes down the index-th border link in both directions
// between DCs a and b, reproducing the Fig 13A failure scenario.
func (t *DualDC) FailBorderLink(a, b, index int) {
	t.Inter[a][b][index].Link.SetUp(false)
	t.Inter[b][a][index].Link.SetUp(false)
}
