package main

import (
	"fmt"
	"runtime"
	"time"

	"uno/internal/ec"
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/simtest"
	"uno/internal/stats"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// An isolated drive times one layer's public API from outside, with the
// fixture built before the clock starts. op runs n iterations and returns
// the time it spent in them, so an op that has to rebuild a fixture midway
// leaves the rebuild out. drive grows n until one call lasts at least d and
// reports nanoseconds per iteration of that call. It collects first, so the
// garbage of the workload that ran before (hundreds of MB on rpc_storm) is
// not swept on the drive's clock.
func drive(d time.Duration, op func(n int) time.Duration) float64 {
	runtime.GC()
	n := 1
	for {
		el := op(n)
		if el >= d || n >= 1<<40 {
			return float64(el.Nanoseconds()) / float64(n)
		}
		// Aim 20 % past the target from the rate just seen, growing at
		// most 100× at a time so a cold first call cannot overshoot.
		next := n * 100
		if el > 0 {
			if est := int(1.2 * float64(n) * float64(d) / float64(el)); est < next {
				next = est
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

// timed adapts a plain loop body to drive.
func timed(body func(n int)) func(int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		body(n)
		return time.Since(t0)
	}
}

var driveSink uint64

// delayMix is one delay per timing-wheel level region (≈2 ns, ≈300 ns,
// ≈20 µs, ≈1.3 ms, ≈86 ms), as in the repo's BenchmarkWheelInsert.
var delayMix = [...]eventq.Time{
	2 * eventq.Nanosecond, 300 * eventq.Nanosecond, 20 * eventq.Microsecond,
	1300 * eventq.Microsecond, 86 * eventq.Millisecond,
}

// driveSchedPop: one AfterArg plus one Step against a standing queue of the
// given depth.
func driveSchedPop(d time.Duration, depth int) float64 {
	s := eventq.New()
	fn := func(any) {}
	sched := func(i int) {
		s.AfterArg(delayMix[i%len(delayMix)]+eventq.Time((uint64(i)*2654435761)%4096), fn, nil)
	}
	for j := 0; j < depth; j++ {
		sched(j)
	}
	i := 0
	return drive(d, timed(func(n int) {
		for k := 0; k < n; k++ {
			sched(i)
			s.Step()
			i++
		}
	}))
}

// driveTimerReset: rearm and fire a reusable Timer on an otherwise empty
// scheduler — the pattern every port, pacer and RTO uses.
func driveTimerReset(d time.Duration) float64 {
	s := eventq.New()
	timer := s.NewTimer(func() {})
	return drive(d, timed(func(n int) {
		for k := 0; k < n; k++ {
			timer.ResetAfter(10)
			s.Run()
		}
	}))
}

// star is a two-host, one-switch fabric.
type star struct {
	net      *netsim.Network
	sw       *netsim.Switch
	src, dst *netsim.Host
}

func newStar(dstPort netsim.PortConfig) star {
	const bw = int64(100e9)
	net := netsim.New(1)
	st := star{net: net, sw: netsim.NewSwitch(net, "sw", nil),
		src: netsim.NewHost(net, "src", 0), dst: netsim.NewHost(net, "dst", 0)}
	st.src.AttachNIC(st.sw, bw, eventq.Microsecond)
	st.dst.AttachNIC(st.sw, bw, eventq.Microsecond)
	st.sw.AddPort(st.src, bw, eventq.Microsecond, simtest.PortConfig())
	st.sw.AddPort(st.dst, bw, eventq.Microsecond, dstPort)
	st.sw.SetRouter(simtest.DstRouter{st.src.ID(): 0, st.dst.ID(): 1})
	st.src.SetHandler(func(*netsim.Packet) {})
	st.dst.SetHandler(func(*netsim.Packet) {})
	return st
}

func (st star) packet(size int) *netsim.Packet {
	p := st.net.AllocPacket()
	p.Type, p.Src, p.Dst, p.Size, p.ECNCapable = netsim.Data, st.src.ID(), st.dst.ID(), size, true
	return p
}

// driveHop: what one link traversal costs, its scheduler events included:
// host → switch → host in bursts of 16, the transport drives' window, so
// the fabric is as pipelined as under them.
func driveHop(d time.Duration) float64 {
	st := newStar(simtest.PortConfig())
	perPacket := drive(d, timed(func(n int) {
		for done := 0; done < n; done += 16 {
			for j := min(16, n-done); j > 0; j-- {
				st.src.Send(st.packet(4096 + transport.HeaderSize))
			}
			st.net.Sched.Run()
		}
	}))
	return perPacket / 2 // the NIC's link, then the switch port's
}

// driveFabricHop: the same link traversal on the full dual-DC fat tree with
// phantom queues, raw packets between random host pairs in bursts of 1024,
// so the hops run over two thousand ports' worth of state instead of hot
// in cache. This, not the star's figure, is what the ledger charges a hop.
func driveFabricHop(d time.Duration) (float64, error) {
	cfg := topo.DefaultConfig()
	cfg.PhantomEnabled = true
	net := netsim.New(1)
	tp, err := topo.Build(net, cfg)
	if err != nil {
		return 0, err
	}
	for _, h := range tp.Hosts {
		h.SetHandler(func(*netsim.Packet) {})
	}
	counter := netsim.NewCountingObserver()
	net.Observer = counter
	r := rng.New(1)
	all := workload.HostRange{Lo: 0, Hi: len(tp.Hosts)}
	perPacket := drive(d, timed(func(n int) {
		for done := 0; done < n; done += 1024 {
			for j := min(1024, n-done); j > 0; j-- {
				src := all.Pick(r)
				p := net.AllocPacket()
				p.Type, p.Size, p.ECNCapable, p.Entropy = netsim.Data, 4096+transport.HeaderSize, true, r.Uint32()
				p.Src, p.Dst = tp.Hosts[src].ID(), tp.Hosts[all.PickOther(r, src)].ID()
				tp.Hosts[src].Send(p)
			}
			net.Sched.Run()
		}
	}))
	// The last call dominates both counts, so their ratio is its own.
	return perPacket * float64(counter.Sent) / float64(counter.Delivered), nil
}

// drivePortEnqueue: Port.Enqueue on a port with RED and a phantom queue,
// in bursts of 64 so the queue stands inside the marking band. Only the
// enqueue loop is timed; draining the burst is not.
func drivePortEnqueue(d time.Duration) float64 {
	const qcap = int64(1 << 20)
	st := newStar(netsim.PortConfig{QueueCap: qcap, MarkMin: 16 << 10, MarkMax: 256 << 10, ControlBypass: true,
		Phantom: netsim.NewPhantomQueue(int64(90e9), qcap, 16<<10, 256<<10)})
	port := st.sw.Port(1)
	return drive(d, func(n int) time.Duration {
		var el time.Duration
		for done := 0; done < n; done += 64 {
			burst := min(64, n-done)
			t0 := time.Now()
			for j := 0; j < burst; j++ {
				port.Enqueue(st.packet(1500))
			}
			el += time.Since(t0)
			st.net.Sched.Run()
		}
		return el
	})
}

func driveDigestFold(d time.Duration) float64 {
	h := netsim.DigestSeed
	ns := drive(d, timed(func(n int) {
		for k := 0; k < n; k++ {
			h = netsim.DigestFold(h, uint64(k))
		}
	}))
	driveSink += h
	return ns
}

func drivePoolCycle(d time.Duration) float64 {
	net := netsim.New(1)
	return drive(d, timed(func(n int) {
		for k := 0; k < n; k++ {
			net.FreePacket(net.AllocPacket())
		}
	}))
}

// driveIdleWindow: Cluster.RunUntil over an idle dual-DC fabric, per
// lookahead window — the barrier, the per-window goroutines and the empty
// handoff drain with no simulation work to hide them.
func driveIdleWindow(d time.Duration, workers int) (float64, error) {
	cl := netsim.NewCluster(1, 2, workers)
	if _, err := topo.BuildCluster(cl, topo.DefaultConfig()); err != nil {
		return 0, err
	}
	return drive(d, timed(func(n int) {
		cl.RunUntil(cl.Now() + eventq.Time(n)*cl.Lookahead())
	})), nil
}

// transportCost is the cost of transport work on a two-host star under
// FixedWindow and FixedEntropy (policies that do nothing), with the hops it
// took counted so the ledger can take the fabric's part out.
type transportCost struct {
	ns, hops, allocB float64 // per flow or per acked packet
}

func starIncast() *simtest.Incast {
	return simtest.NewIncast(1, 100e9, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
}

// driveFlowCycle: open, run and complete one-packet flows, one at a time.
// Endpoints keep finished flows, so the fixture is rebuilt (untimed) every
// 4096 flows to keep memory flat.
func driveFlowCycle(d time.Duration) (transportCost, error) {
	var c transportCost
	var flows, hops, allocB uint64
	var startErr error
	c.ns = drive(d, func(n int) time.Duration {
		var el time.Duration
		for done := 0; done < n && startErr == nil; {
			in := starIncast()
			counter := netsim.NewCountingObserver()
			in.Net.Observer = counter
			params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(0, 4096, 100e9)}
			chunk := min(4096, n-done)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for j := 0; j < chunk; j++ {
				flow := &transport.Flow{ID: netsim.FlowID(j + 1), Src: in.Senders[0], Dst: in.Recv,
					Size: 1024, Start: in.Net.Now()}
				if _, err := transport.Start(in.SenderEps[0], in.RecvEp, flow, params,
					&transport.FixedWindow{}, &transport.FixedEntropy{}, nil); err != nil {
					startErr = err
					break
				}
				in.Net.Sched.Run()
			}
			el += time.Since(t0)
			runtime.ReadMemStats(&m1)
			done += chunk
			flows += uint64(chunk)
			hops += counter.Delivered
			allocB += m1.TotalAlloc - m0.TotalAlloc
		}
		return el
	})
	if startErr != nil {
		return c, fmt.Errorf("flow-cycle drive: %w", startErr)
	}
	c.hops, c.allocB = float64(hops)/float64(flows), float64(allocB)/float64(flows)
	return c, nil
}

// drivePktPath: one long FixedWindow flow; cost per acked packet from Launch
// to completion (Open, which builds the schedule, is outside the clock).
func drivePktPath(d time.Duration) (transportCost, error) {
	var c transportCost
	var pkts, hops uint64
	var openErr error
	c.ns = drive(d, func(n int) time.Duration {
		in := starIncast()
		counter := netsim.NewCountingObserver()
		in.Net.Observer = counter
		flow := &transport.Flow{ID: 1, Src: in.Senders[0], Dst: in.Recv, Size: int64(n) * 4096}
		conn, err := transport.Open(in.SenderEps[0], in.RecvEp, flow,
			transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(0, 4096, 100e9)},
			&transport.FixedWindow{}, &transport.FixedEntropy{}, nil)
		if err != nil {
			openErr = err
			return d
		}
		t0 := time.Now()
		conn.Launch()
		in.Net.Sched.Run()
		el := time.Since(t0)
		pkts += uint64(n)
		hops += counter.Delivered
		return el
	})
	if openErr != nil {
		return c, fmt.Errorf("packet-path drive: %w", openErr)
	}
	c.hops = float64(hops) / float64(pkts)
	return c, nil
}

// policyNs runs a fixed 8:1 mixed incast (four intra-DC and four inter-DC
// senders into host 0, 4 MiB each) under the given stack with the probes
// attached, one call in eight timed, and returns the mean OnAck and Assign
// times.
func policyNs(st harness.Stack, timerNs float64) (onAck, assign float64, err error) {
	pr := newProbes(1, 8, timerNs)
	sim, err := harness.NewSimShards(1, topo.DefaultConfig(), pr.wrap(st), 0)
	if err != nil {
		return 0, 0, err
	}
	perDC := sim.Topo.Cfg.HostsPerDC()
	var srcs []int
	for i := 1; i <= 4; i++ {
		srcs = append(srcs, 16*i, perDC+16*i)
	}
	sim.Schedule(workload.Incast(srcs, 0, 4<<20, 0, func(src int) bool { return src >= perDC }))
	sim.Run(eventq.Second)
	if sim.Pending() != 0 {
		return 0, 0, fmt.Errorf("policy mini-run %s: %d of 8 flows unfinished", st.Name, sim.Pending())
	}
	t := pr.total()
	return t.ccAck.meanNs(timerNs), t.lbAssign.meanNs(timerNs), nil
}

// shards builds the 8 × 4 KiB source block every codec drive uses.
func sourceBlock() [][]byte {
	src := make([][]byte, 8)
	for i := range src {
		src[i] = make([]byte, 4096)
		for j := range src[i] {
			src[i][j] = byte(i*j + 1)
		}
	}
	return src
}

// mbps converts ns per 8 × 4 KiB block into MB/s of source data.
func mbps(nsPerBlock float64) float64 { return 8 * 4096 / nsPerBlock * 1e9 / 1e6 }

func driveRS(d time.Duration) (encode, reconstruct float64, err error) {
	codec, err := ec.New(8, 2)
	if err != nil {
		return 0, 0, err
	}
	codec.Warmup()
	shards := append(sourceBlock(), make([]byte, 4096), make([]byte, 4096))
	var opErr error
	encode = drive(d, timed(func(n int) {
		for k := 0; k < n && opErr == nil; k++ {
			opErr = codec.Encode(shards)
		}
	}))
	work := make([][]byte, len(shards))
	reconstruct = drive(d, timed(func(n int) {
		for k := 0; k < n && opErr == nil; k++ {
			copy(work, shards)
			work[1], work[6] = nil, nil // two data shards erased
			opErr = codec.Reconstruct(work)
		}
	}))
	return mbps(encode), mbps(reconstruct), opErr
}

func driveFountain(d time.Duration) (encode, decode float64, err error) {
	f, err := ec.NewFountain(8, 2)
	if err != nil {
		return 0, 0, err
	}
	src := sourceBlock()
	out := make([]byte, 4096)
	var opErr error
	// Two fresh repair symbols per block, ids varied so mask sampling is
	// inside the measurement, as when the transport mints on a NACK.
	encode = drive(d, timed(func(n int) {
		for k := 0; k < n && opErr == nil; k++ {
			id := 8 + k%1024
			if opErr = f.EncodeSymbol(42, 8, id, src, out); opErr == nil {
				opErr = f.EncodeSymbol(42, 8, id+1, src, out)
			}
		}
	}))
	pool := make([][]byte, 20)
	for id := range pool {
		pool[id] = make([]byte, 4096)
		if err := f.EncodeSymbol(42, 8, id, src, pool[id]); err != nil {
			return 0, 0, err
		}
	}
	decode = drive(d, timed(func(n int) {
		for k := 0; k < n && opErr == nil; k++ {
			dec := f.Decoder(42, 8, 4096)
			for id := 2; id < len(pool) && !dec.Decoded() && opErr == nil; id++ { // sources 0 and 1 erased
				opErr = dec.Add(id, pool[id])
			}
			if opErr == nil && !dec.Decoded() {
				opErr = fmt.Errorf("fountain drive: symbol pool exhausted before decode")
			}
		}
	}))
	return mbps(encode), mbps(decode), opErr
}

func driveGEDrop(d time.Duration) float64 {
	ge := failure.NewTable1Loss(failure.Setup1, rng.New(1))
	ge.PGoodToBad *= wanLossAmp
	var drops uint64
	ns := drive(d, timed(func(n int) {
		for k := 0; k < n; k++ {
			if ge.Drop(0, nil) {
				drops++
			}
		}
	}))
	driveSink += drops
	return ns
}

func drivePoisson(d time.Duration) (float64, error) {
	var genErr error
	ns := drive(d, timed(func(n int) {
		_, err := workload.Poisson(workload.PoissonConfig{
			CDF: workload.GoogleRPC, Load: rpcIntraLoad, LinkBps: 100e9,
			Sources: workload.HostRange{Lo: 0, Hi: 128}, Dests: workload.HostRange{Lo: 0, Hi: 128},
			Duration: eventq.Time(1) << 60, MaxFlows: n,
		}, rng.New(1))
		if err != nil {
			genErr = err
		}
	}))
	return ns, genErr
}

// driveSummarize: stats.Sample.Summarize over 200 k unsorted samples, per
// sample. Filling the Sample is outside the clock.
func driveSummarize(d time.Duration) float64 {
	const samples = 200000
	r := rng.New(1)
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = r.Float64()
	}
	return drive(d, func(n int) time.Duration {
		var el time.Duration
		for k := 0; k < n; k++ {
			s := stats.NewSample(samples)
			s.AddAll(vals)
			t0 := time.Now()
			sum := s.Summarize()
			el += time.Since(t0)
			driveSink += uint64(sum.N)
		}
		return el
	}) / samples
}

// driveRunParallel: harness.RunParallel over 10 k empty jobs at
// parallel = nproc, per job.
func driveRunParallel(d time.Duration) float64 {
	const jobs = 10000
	return drive(d, timed(func(n int) {
		for k := 0; k < n; k++ {
			out := harness.RunParallel(runtime.NumCPU(), jobs, func(job int) int { return job })
			driveSink += uint64(len(out))
		}
	})) / jobs
}

// buildMs is the median time of five topology builds.
func buildMs(build func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return summarize(ms).value, nil
}
