// Package simtest provides small hand-wired network fixtures shared by the
// protocol test suites: a two-host dumbbell and an N-sender incast star
// whose sender links can have heterogeneous delays — the cheapest way to
// put an "intra-DC" and an "inter-DC" flow in competition on one bottleneck
// without building the full fat-tree.
package simtest

import (
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/stats"
	"uno/internal/transport"
)

// DstRouter forwards by destination host id.
type DstRouter map[netsim.NodeID]int

// Route implements netsim.Router.
func (m DstRouter) Route(sw *netsim.Switch, p *netsim.Packet) int {
	if port, ok := m[p.Dst]; ok {
		return port
	}
	return -1
}

// PortConfig returns a 1 MiB port with the paper's 25/75% RED thresholds.
func PortConfig() netsim.PortConfig {
	return netsim.PortConfig{
		QueueCap: 1 << 20, MarkMin: 1 << 18, MarkMax: 3 << 18, ControlBypass: true,
	}
}

// PhantomPortConfig adds a phantom queue (drain 0.9× bw) to PortConfig,
// with the low-threshold wide RED band the topology package uses (marking
// from 10% to 75% of the phantom size).
func PhantomPortConfig(bw int64, size int64) netsim.PortConfig {
	cfg := PortConfig()
	// With a phantom queue attached, the physical RED thresholds stay as a
	// backstop; the phantom signal dominates in steady state.
	cfg.Phantom = netsim.NewPhantomQueue(int64(0.9*float64(bw)), size, size/10, size*3/4)
	return cfg
}

// Incast is an N-sender star: sender i reaches the receiver through a
// dedicated ingress switch path with its own link delay, and all senders
// share the single bottleneck port toward the receiver.
//
//	s0 ─(delay0)─┐
//	s1 ─(delay1)─┼─ SW ═(bottleneck)═ recv
//	...          │
type Incast struct {
	Net        *netsim.Network
	SW         *netsim.Switch
	Recv       *netsim.Host
	RecvEp     *transport.Endpoint
	Senders    []*netsim.Host
	SenderEps  []*transport.Endpoint
	Bottleneck *netsim.Port
}

// NewIncast builds the star. delays[i] is the one-way delay of sender i's
// access link; bw applies to all links; bottleneckCfg configures the shared
// output port.
func NewIncast(seed uint64, bw int64, delays []eventq.Time, bottleneckCfg netsim.PortConfig) *Incast {
	net := netsim.New(seed)
	in := &Incast{Net: net}
	in.SW = netsim.NewSwitch(net, "sw", nil)
	in.Recv = netsim.NewHost(net, "recv", 0)
	in.Recv.AttachNIC(in.SW, bw, eventq.Microsecond)

	router := DstRouter{}
	// Port 0: bottleneck toward the receiver.
	in.SW.AddPort(in.Recv, bw, eventq.Microsecond, bottleneckCfg)
	router[in.Recv.ID()] = 0
	for i, d := range delays {
		s := netsim.NewHost(net, "s"+string(rune('0'+i)), 0)
		s.AttachNIC(in.SW, bw, d)
		idx, _ := in.SW.AddPort(s, bw, d, PortConfig())
		router[s.ID()] = idx
		in.Senders = append(in.Senders, s)
		in.SenderEps = append(in.SenderEps, transport.NewEndpoint(s))
	}
	in.SW.SetRouter(router)
	in.RecvEp = transport.NewEndpoint(in.Recv)
	in.Bottleneck = in.SW.Port(0)
	return in
}

// BaseRTT returns the unloaded RTT for sender i's flows (propagation plus
// store-and-forward of one data packet and one ACK over the two hops).
func (in *Incast) BaseRTT(i int, mtu int, bw int64) eventq.Time {
	d := in.senderDelay(i)
	prop := 2 * (d + eventq.Microsecond)
	ser := 2 * (netsim.SerializationTime(mtu+transport.HeaderSize, bw) +
		netsim.SerializationTime(netsim.AckSize, bw))
	return prop + ser
}

func (in *Incast) senderDelay(i int) eventq.Time {
	return in.Senders[i].NIC().Link().Delay
}

// Parallel is a two-host fixture with P equal parallel paths between two
// switches — the minimal topology for exercising load balancers:
//
//	A — swA ═(P parallel links)═ swB — B
//
// Forward data packets pick the path entropy % P. NewParallel's reverse
// (ACK) path is a single dedicated link, so ACK routing never perturbs the
// experiment; NewParallelDuplex's is P links again, picked by
// (entropy / P) % P — as on the fat-tree, where each switch salts its own
// hash, an entropy names one path out and one path back, and the second is
// not the mirror of the first.
type Parallel struct {
	Net   *netsim.Network
	A, B  *netsim.Host
	EpA   *transport.Endpoint
	EpB   *transport.Endpoint
	Paths []*netsim.Link
	Back  []*netsim.Link
}

type parallelRouter struct {
	p   *Parallel
	atA bool
}

func (r parallelRouter) Route(sw *netsim.Switch, pkt *netsim.Packet) int {
	out, back := r.p.PathsOf(pkt.Entropy)
	if r.atA {
		if pkt.Dst == r.p.A.ID() {
			return len(r.p.Paths) // downlink back to A
		}
		return out
	}
	if pkt.Dst == r.p.B.ID() {
		return 0
	}
	return 1 + back // reverse toward swA
}

// PathsOf returns the indices into Paths and Back of the links a packet of
// the given entropy takes toward B and toward A.
func (p *Parallel) PathsOf(entropy uint32) (out, back int) {
	n := uint32(len(p.Paths))
	return int(entropy % n), int(entropy / n % uint32(len(p.Back)))
}

// NewParallel builds the fixture with the given number of paths.
func NewParallel(seed uint64, bw int64, paths int, delay eventq.Time) *Parallel {
	return newParallel(seed, bw, paths, 1, delay)
}

// NewParallelDuplex builds it with as many reverse links as paths.
func NewParallelDuplex(seed uint64, bw int64, paths int, delay eventq.Time) *Parallel {
	return newParallel(seed, bw, paths, paths, delay)
}

func newParallel(seed uint64, bw int64, paths, back int, delay eventq.Time) *Parallel {
	net := netsim.New(seed)
	p := &Parallel{Net: net}
	swA := netsim.NewSwitch(net, "swA", nil)
	swB := netsim.NewSwitch(net, "swB", nil)
	p.A = netsim.NewHost(net, "A", 0)
	p.B = netsim.NewHost(net, "B", 0)
	p.A.AttachNIC(swA, bw, delay)
	p.B.AttachNIC(swB, bw, delay)
	for i := 0; i < paths; i++ {
		_, link := swA.AddPort(swB, bw, delay, PortConfig())
		p.Paths = append(p.Paths, link)
	}
	swA.AddPort(p.A, bw, delay, PortConfig()) // port paths: downlink to A
	swB.AddPort(p.B, bw, delay, PortConfig()) // port 0
	for i := 0; i < back; i++ {
		_, link := swB.AddPort(swA, bw, delay, PortConfig()) // port 1+i: reverse
		p.Back = append(p.Back, link)
	}
	swA.SetRouter(parallelRouter{p: p, atA: true})
	swB.SetRouter(parallelRouter{p: p, atA: false})
	p.EpA = transport.NewEndpoint(p.A)
	p.EpB = transport.NewEndpoint(p.B)
	return p
}

// RateSampler periodically records each connection's goodput into a time
// series (bytes acked per bin).
type RateSampler struct {
	Series []*stats.TimeSeries
	conns  []*transport.Conn
	last   []int64
}

// NewRateSampler samples the conns every interval until stop.
func NewRateSampler(sched *eventq.Scheduler, conns []*transport.Conn,
	start, interval, stop eventq.Time) *RateSampler {
	rs := &RateSampler{
		conns: conns,
		last:  make([]int64, len(conns)),
	}
	bins := int((stop-start)/interval) + 1
	for range conns {
		rs.Series = append(rs.Series, stats.NewTimeSeries(start, interval, bins))
	}
	var timer *eventq.Timer
	timer = sched.NewTimer(func() {
		now := sched.Now()
		for i, c := range rs.conns {
			if c == nil {
				continue
			}
			acked := c.Stats().BytesAcked
			rs.Series[i].AddTo(now-1, float64(acked-rs.last[i]))
			rs.last[i] = acked
		}
		if now < stop {
			timer.ResetAfter(interval)
		}
	})
	timer.Reset(start + interval)
	return rs
}

// FinalRates returns each flow's goodput (bytes/s) averaged over the bins
// in [fromBin, toBin).
func (rs *RateSampler) FinalRates(fromBin, toBin int) []float64 {
	out := make([]float64, len(rs.Series))
	for i, ts := range rs.Series {
		total := 0.0
		for b := fromBin; b < toBin && b < ts.Bins(); b++ {
			total += ts.Sum(b)
		}
		width := ts.BinWidth().Seconds() * float64(toBin-fromBin)
		if width > 0 {
			out[i] = total / width
		}
	}
	return out
}
