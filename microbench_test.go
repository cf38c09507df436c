package uno_test

// Hot-path microbenchmarks complementing the figure-level benchmarks in
// bench_test.go: these isolate the three layers the allocation-free hot path
// touches (event engine, switch port + link, whole incast) so a regression
// can be localized without bisecting a full experiment. All report allocs —
// the steady-state budgets are enforced as hard tests in internal/eventq and
// internal/netsim; these show the cost per operation.

import (
	"fmt"
	"testing"

	"uno/internal/baselines"
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/simtest"
	"uno/internal/transport"
)

// BenchmarkEventqPushPop measures one schedule+dispatch cycle with recycled
// events, at a realistic pending-event depth.
func BenchmarkEventqPushPop(b *testing.B) {
	s := eventq.New()
	fn := func(any) {}
	const depth = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += depth {
		n := depth
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			// Knuth-hash the index so pushes land unordered in the queue.
			s.AfterArg(eventq.Time(1+(uint64(j)*2654435761)%4096), fn, nil)
		}
		s.Run()
	}
}

// BenchmarkWheelInsert isolates the wheel's insert/cascade/pop path — the
// largest block in the post-batch profile and the target of the arena
// re-layout: each iteration schedules one recycled event into a sustained
// fixed-depth queue and pops one, with a delay mix that exercises every
// wheel level (serialization-scale, RTT-scale, epoch-scale, RTO-scale), so
// ns/op reflects bucket traversal and cascade cost, not drain bursts. Two
// depths bracket the cache regimes: 4096 pending events fit comfortably in
// L2, where pointer-chasing is cheap anyway; 65536 pending events push the
// working set past the last-level cache — the simulation-scale regime
// (millions of in-flight events per simulated second) whose cache misses
// motivated the slab layout.
func BenchmarkWheelInsert(b *testing.B) {
	// One delay per wheel level region (≈2 ns, ≈300 ns, ≈20 µs, ≈1.3 ms,
	// ≈86 ms), plus a jitter stride that spreads events across slots.
	delays := [...]eventq.Time{
		2 * eventq.Nanosecond,
		300 * eventq.Nanosecond,
		20 * eventq.Microsecond,
		1300 * eventq.Microsecond,
		86 * eventq.Millisecond,
	}
	for _, depth := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := eventq.New()
			fn := func(any) {}
			sched := func(i int) {
				d := delays[i%len(delays)] + eventq.Time((uint64(i)*2654435761)%4096)
				s.AfterArg(d, fn, nil)
			}
			for j := 0; j < depth; j++ {
				sched(j)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched(i)
				s.Step()
			}
		})
	}
}

// BenchmarkEventqTimerReset measures the rearm-and-fire cycle of a reusable
// Timer — the pattern every port, pacer, and RTO in the simulator uses.
func BenchmarkEventqTimerReset(b *testing.B) {
	s := eventq.New()
	timer := s.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timer.ResetAfter(10)
		s.Run()
	}
}

// BenchmarkPortEnqueueDeliver pushes one pooled packet through the full
// fabric path per iteration: host NIC serialization, switch routing, output
// port queue, link propagation, delivery, recycle.
func BenchmarkPortEnqueueDeliver(b *testing.B) {
	const bw = int64(100e9)
	net := netsim.New(1)
	sw := netsim.NewSwitch(net, "sw", nil)
	src := netsim.NewHost(net, "src", 0)
	dst := netsim.NewHost(net, "dst", 0)
	src.AttachNIC(sw, bw, eventq.Microsecond)
	dst.AttachNIC(sw, bw, eventq.Microsecond)
	sw.AddPort(src, bw, eventq.Microsecond, simtest.PortConfig())
	sw.AddPort(dst, bw, eventq.Microsecond, simtest.PortConfig())
	sw.SetRouter(simtest.DstRouter{src.ID(): 0, dst.ID(): 1})
	dst.SetHandler(func(*netsim.Packet) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := net.AllocPacket()
		p.Type = netsim.Data
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.Size = 1500
		p.ECNCapable = true
		src.Send(p)
		net.Sched.Run()
	}
}

// BenchmarkIncastStep runs the golden-digest incast scenario (3 senders, one
// far, MP-RDMA transport, 1 MiB each) to completion per iteration — the
// full-stack cost of one small experiment, transport allocations included.
func BenchmarkIncastStep(b *testing.B) {
	const bw = int64(100e9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		delays := []eventq.Time{
			eventq.Microsecond, 2 * eventq.Microsecond, 100 * eventq.Microsecond,
		}
		in := simtest.NewIncast(9, bw, delays, simtest.PortConfig())
		for j := range delays {
			flow := &transport.Flow{
				ID: netsim.FlowID(j + 1), Src: in.Senders[j], Dst: in.Recv,
				Size: 1 << 20, Start: in.Net.Now(),
			}
			params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(j, 4096, bw)}
			if _, err := transport.Start(in.SenderEps[j], in.RecvEp, flow, params,
				baselines.NewMPRDMA(), &transport.FixedEntropy{}, nil); err != nil {
				b.Fatal(err)
			}
		}
		in.Net.Sched.RunUntil(100 * eventq.Millisecond)
	}
}

// digestSink defeats dead-code elimination in BenchmarkDigestFold.
var digestSink uint64

// BenchmarkDigestFold measures the per-word cost of the digest mix — it
// runs four times for every fabric event whenever a DigestObserver is
// attached, which is every harness run.
func BenchmarkDigestFold(b *testing.B) {
	b.ReportAllocs()
	h := netsim.DigestSeed
	for i := 0; i < b.N; i++ {
		h = netsim.DigestFold(h, uint64(i))
	}
	digestSink = h
}

// BenchmarkPortEnqueue isolates Port.Enqueue — the fused single-pass
// admission that runs once per packet per hop — across the port
// configurations that activate its different branches: plain FIFO, RED
// marking, phantom-queue marking, QCN sampling, and trimming under genuine
// queue pressure. Packets are
// enqueued in bursts straight into the output port (no NIC serialization
// in front), so the queue actually builds depth and the capacity, trim,
// and QCN>threshold branches run; the scheduler then drains the burst and
// recycles the packets.
func BenchmarkPortEnqueue(b *testing.B) {
	const bw = int64(100e9)
	const qcap = int64(1 << 20)
	variants := []struct {
		name string
		cfg  netsim.PortConfig
	}{
		{"fifo", netsim.PortConfig{QueueCap: qcap}},
		{"red", netsim.PortConfig{QueueCap: qcap, MarkMin: qcap / 4, MarkMax: 3 * qcap / 4}},
		{"phantom", netsim.PortConfig{QueueCap: qcap,
			Phantom: netsim.NewPhantomQueue(bw*95/100, qcap, qcap/4, 3*qcap/4)}},
		// 80 KiB: the QCN threshold, a fifth of the queue, is 16 KiB.
		{"qcn", netsim.PortConfig{QueueCap: 80 << 10, QCN: true}},
		// 16 KiB capacity against 96 KiB bursts: most of each burst tail-trims.
		{"trim-pressure", netsim.PortConfig{QueueCap: 16 << 10, Trim: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			net := netsim.New(1)
			sw := netsim.NewSwitch(net, "sw", nil)
			src := netsim.NewHost(net, "src", 0)
			dst := netsim.NewHost(net, "dst", 0)
			sw.AddPort(src, bw, eventq.Microsecond, simtest.PortConfig())
			sw.AddPort(dst, bw, eventq.Microsecond, v.cfg)
			sw.SetRouter(simtest.DstRouter{src.ID(): 0, dst.ID(): 1})
			src.SetHandler(func(*netsim.Packet) {}) // QCN's Cnm terminal point
			dst.SetHandler(func(*netsim.Packet) {})
			port := sw.Port(1)
			const burst = 64
			b.ReportAllocs()
			for i := 0; i < b.N; i += burst {
				n := burst
				if rem := b.N - i; rem < n {
					n = rem
				}
				for j := 0; j < n; j++ {
					p := net.AllocPacket()
					p.Type = netsim.Data
					p.Src = src.ID()
					p.Dst = dst.ID()
					p.Size = 1500
					p.ECNCapable = true
					port.Enqueue(p)
				}
				net.Sched.Run()
			}
		})
	}
}

// BenchmarkLinkDelivery pushes bursts of back-to-back packets through a
// switch port and its link, isolating the per-packet schedule/arrive cycle.
func BenchmarkLinkDelivery(b *testing.B) {
	const bw = int64(100e9)
	net := netsim.New(1)
	sw := netsim.NewSwitch(net, "sw", nil)
	src := netsim.NewHost(net, "src", 0)
	dst := netsim.NewHost(net, "dst", 0)
	src.AttachNIC(sw, bw, eventq.Microsecond)
	dst.AttachNIC(sw, bw, eventq.Microsecond)
	sw.AddPort(src, bw, eventq.Microsecond, simtest.PortConfig())
	sw.AddPort(dst, bw, eventq.Microsecond, simtest.PortConfig())
	sw.SetRouter(simtest.DstRouter{src.ID(): 0, dst.ID(): 1})
	dst.SetHandler(func(*netsim.Packet) {})
	const burst = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i += burst {
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			p := net.AllocPacket()
			p.Type = netsim.Data
			p.Src = src.ID()
			p.Dst = dst.ID()
			p.Size = 4096
			src.Send(p)
		}
		net.Sched.Run()
	}
}
