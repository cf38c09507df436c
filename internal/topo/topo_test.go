package topo

import (
	"reflect"
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 4 // 4 pods × (2 edge + 2 agg), 4 cores, 16 hosts per DC
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.K = 3 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.NumDCs = 0 },
		func(c *Config) { c.LinkBps = 0 },
		func(c *Config) { c.BorderLinks = 0 },
		func(c *Config) { c.QueueCapIntra = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated successfully", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPaperTopologyCounts(t *testing.T) {
	// §5.1: 16 core switches, 8 pods with 4 agg + 4 edge, 4 servers per
	// edge, two DCs joined by 8 border links.
	net := netsim.New(1)
	tp := MustBuild(net, DefaultConfig())
	if len(tp.DCs) != 2 {
		t.Fatalf("DCs = %d", len(tp.DCs))
	}
	for i, dc := range tp.DCs {
		if len(dc.Cores) != 16 {
			t.Errorf("dc%d cores = %d, want 16", i, len(dc.Cores))
		}
		if len(dc.Edges) != 8 || len(dc.Edges[0]) != 4 {
			t.Errorf("dc%d edges = %dx%d, want 8x4", i, len(dc.Edges), len(dc.Edges[0]))
		}
		if len(dc.Aggs) != 8 || len(dc.Aggs[0]) != 4 {
			t.Errorf("dc%d aggs = %dx%d, want 8x4", i, len(dc.Aggs), len(dc.Aggs[0]))
		}
		if len(dc.Hosts) != 128 {
			t.Errorf("dc%d hosts = %d, want 128", i, len(dc.Hosts))
		}
		if dc.Border == nil {
			t.Errorf("dc%d missing border switch", i)
		}
	}
	if len(tp.Hosts) != 256 {
		t.Fatalf("total hosts = %d, want 256", len(tp.Hosts))
	}
	if got := len(tp.InterLinkFor(0, 1)); got != 8 {
		t.Fatalf("inter links 0→1 = %d, want 8", got)
	}
	if got := len(tp.InterLinkFor(1, 0)); got != 8 {
		t.Fatalf("inter links 1→0 = %d, want 8", got)
	}
}

func TestHostCoordsRoundTrip(t *testing.T) {
	net := netsim.New(2)
	tp := MustBuild(net, smallConfig())
	for i, h := range tp.Hosts {
		c := tp.Coord(h.ID())
		// Reconstruct the DC-major index from coordinates.
		perDC := tp.Cfg.HostsPerDC()
		idx := c.DC*perDC + c.Pod*tp.Cfg.perPod()*tp.Cfg.hostsPerEdge() +
			c.Edge*tp.Cfg.hostsPerEdge() + c.Idx
		if idx != i {
			t.Fatalf("host %d coords %+v reconstruct to %d", i, c, idx)
		}
	}
}

func TestCoordPanicsForSwitch(t *testing.T) {
	net := netsim.New(3)
	tp := MustBuild(net, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Coord of a switch did not panic")
		}
	}()
	tp.Coord(tp.DCs[0].Cores[0].ID())
}

// probe sends one data packet and returns whether it arrived and when.
func probe(net *netsim.Network, src, dst *netsim.Host, size int) (bool, eventq.Time) {
	delivered := false
	var at eventq.Time
	dst.SetHandler(func(p *netsim.Packet) {
		delivered = true
		at = net.Now()
	})
	src.Send(&netsim.Packet{Type: netsim.Data, Flow: 1, Src: src.ID(), Dst: dst.ID(), Size: size})
	net.Sched.Run()
	dst.SetHandler(nil)
	return delivered, at
}

func TestAllPairsConnectivitySmall(t *testing.T) {
	net := netsim.New(4)
	tp := MustBuild(net, smallConfig())
	// Exhaustive all-pairs on the k=4 dual DC (32 hosts, 992 pairs).
	for i, src := range tp.Hosts {
		for j, dst := range tp.Hosts {
			if i == j {
				continue
			}
			ok, _ := probe(net, src, dst, 1000)
			if !ok {
				t.Fatalf("no connectivity %s → %s", src.Name(), dst.Name())
			}
		}
	}
}

func TestPaperScaleSpotConnectivity(t *testing.T) {
	net := netsim.New(5)
	tp := MustBuild(net, DefaultConfig())
	pairs := [][2]int{{0, 1}, {0, 5}, {0, 20}, {0, 127}, {0, 128}, {0, 255}, {255, 0}, {130, 7}}
	for _, pr := range pairs {
		ok, _ := probe(net, tp.Hosts[pr[0]], tp.Hosts[pr[1]], 4096)
		if !ok {
			t.Fatalf("no connectivity host %d → %d", pr[0], pr[1])
		}
	}
}

func TestUnloadedRTTMatchesAnalytic(t *testing.T) {
	net := netsim.New(6)
	tp := MustBuild(net, DefaultConfig())
	const mtu = 4096

	check := func(src, dst *netsim.Host) {
		// Round trip: data there, ack back, measured via two probes.
		_, t1 := probe(net, src, dst, mtu)
		start := net.Now()
		_, t2 := probe(net, dst, src, netsim.AckSize)
		rtt := (t1 - 0) + (t2 - start)
		want := tp.BaseRTT(src.ID(), dst.ID(), mtu, netsim.AckSize)
		diff := rtt - want
		if diff < 0 {
			diff = -diff
		}
		if diff > want/100 {
			t.Fatalf("%s↔%s RTT %v, analytic %v", src.Name(), dst.Name(), rtt, want)
		}
	}
	// Cross-pod intra-DC pair (host 0 and host far in DC0).
	check(tp.Hosts[0], tp.Hosts[127])
	// Inter-DC pair.
	check(tp.Hosts[0], tp.Hosts[128])
}

func TestTargetRTTs(t *testing.T) {
	net := netsim.New(7)
	tp := MustBuild(net, DefaultConfig())
	intra := tp.IntraRTT(4096)
	inter := tp.InterRTT(4096)
	// Paper Table 2: 14 µs and 2 ms.
	if intra < 13*eventq.Microsecond || intra > 15*eventq.Microsecond {
		t.Fatalf("intra RTT = %v, want ≈14µs", intra)
	}
	if inter < 1950*eventq.Microsecond || inter > 2050*eventq.Microsecond {
		t.Fatalf("inter RTT = %v, want ≈2ms", inter)
	}
}

func TestECMPSpreadAcrossBorderLinks(t *testing.T) {
	net := netsim.New(8)
	tp := MustBuild(net, DefaultConfig())
	src, dst := tp.Hosts[0], tp.Hosts[128]
	dst.SetHandler(func(p *netsim.Packet) {})
	// Send packets with distinct entropies; they must spread over several
	// of the 8 border links.
	const n = 256
	for e := 0; e < n; e++ {
		src.Send(&netsim.Packet{
			Type: netsim.Data, Flow: 1, Src: src.ID(), Dst: dst.ID(),
			Size: 64, Entropy: uint32(e * 2654435761),
		})
	}
	net.Sched.Run()
	used := 0
	total := uint64(0)
	for _, il := range tp.InterLinkFor(0, 1) {
		if s := il.Link.Stats().Delivered; s > 0 {
			used++
			total += s
		}
	}
	if total != n {
		t.Fatalf("delivered %d over border links, want %d", total, n)
	}
	if used < 6 {
		t.Fatalf("entropy spread over %d/8 border links; hash too weak", used)
	}
}

func TestFixedEntropyPinsPath(t *testing.T) {
	net := netsim.New(9)
	tp := MustBuild(net, DefaultConfig())
	src, dst := tp.Hosts[3], tp.Hosts[200]
	dst.SetHandler(func(p *netsim.Packet) {})
	for i := 0; i < 50; i++ {
		src.Send(&netsim.Packet{
			Type: netsim.Data, Flow: 42, Src: src.ID(), Dst: dst.ID(),
			Size: 64, Entropy: 777,
		})
	}
	net.Sched.Run()
	used := 0
	for _, il := range tp.InterLinkFor(0, 1) {
		if il.Link.Stats().Delivered > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("fixed-entropy flow used %d border links, want 1", used)
	}
}

func TestFailBorderLinkDropsAffectedEntropies(t *testing.T) {
	net := netsim.New(10)
	tp := MustBuild(net, DefaultConfig())
	tp.FailBorderLink(0, 1, 0)
	if tp.InterLinkFor(0, 1)[0].Link.Up() || tp.InterLinkFor(1, 0)[0].Link.Up() {
		t.Fatal("border link still up after FailBorderLink")
	}
	src, dst := tp.Hosts[0], tp.Hosts[128]
	got := 0
	dst.SetHandler(func(p *netsim.Packet) { got++ })
	const n = 512
	for e := 0; e < n; e++ {
		src.Send(&netsim.Packet{
			Type: netsim.Data, Flow: 1, Src: src.ID(), Dst: dst.ID(),
			Size: 64, Entropy: uint32(e * 2654435761),
		})
	}
	net.Sched.Run()
	if got == n {
		t.Fatal("no packets lost despite failed border link")
	}
	// Roughly 1/8 of entropies map to the dead link.
	lost := n - got
	if lost < n/16 || lost > n/4 {
		t.Fatalf("lost %d/%d packets over 1 of 8 failed links", lost, n)
	}
}

func TestSameDCAndPathHops(t *testing.T) {
	net := netsim.New(11)
	tp := MustBuild(net, DefaultConfig())
	h := tp.Hosts
	if !tp.SameDC(h[0].ID(), h[127].ID()) || tp.SameDC(h[0].ID(), h[128].ID()) {
		t.Fatal("SameDC wrong")
	}
	cases := []struct {
		a, b int
		want int
	}{
		{0, 1, 2},   // same edge
		{0, 4, 4},   // same pod, different edge
		{0, 16, 6},  // different pod
		{0, 128, 9}, // different DC
	}
	for _, c := range cases {
		if got := tp.PathHops(h[c.a].ID(), h[c.b].ID()); got != c.want {
			t.Errorf("PathHops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := tp.PathHops(h[0].ID(), h[0].ID()); got != 0 {
		t.Errorf("PathHops(self) = %d", got)
	}
}

func TestSingleDCConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDCs = 1
	net := netsim.New(12)
	tp := MustBuild(net, cfg)
	if tp.DCs[0].Border != nil {
		t.Fatal("single-DC topology has a border switch")
	}
	ok, _ := probe(net, tp.Hosts[0], tp.Hosts[15], 1000)
	if !ok {
		t.Fatal("single-DC connectivity failed")
	}
}

func TestPhantomEnabledPortsGetPhantomQueues(t *testing.T) {
	cfg := smallConfig()
	cfg.PhantomEnabled = true
	net := netsim.New(13)
	tp := MustBuild(net, cfg)
	edge := tp.DCs[0].Edges[0][0]
	if edge.Port(0).Config().Phantom == nil {
		t.Fatal("edge port missing phantom queue")
	}
	border := tp.DCs[0].Border
	interPort := border.Port(border.NumPorts() - 1)
	ph := interPort.Config().Phantom
	if ph == nil {
		t.Fatal("border inter-DC port missing phantom queue")
	}
	if ph.Cap != phantomSizeInter {
		t.Fatalf("inter phantom size = %d, want %d", ph.Cap, phantomSizeInter)
	}
	if ph.DrainBps != int64(0.9*100e9) {
		t.Fatalf("phantom drain = %d", ph.DrainBps)
	}
}

func TestThreeDCTopology(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDCs = 3
	net := netsim.New(14)
	tp := MustBuild(net, cfg)
	// Full mesh of border links between the three DCs.
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a == b {
				continue
			}
			if got := len(tp.InterLinkFor(a, b)); got != cfg.BorderLinks {
				t.Fatalf("inter links %d→%d = %d", a, b, got)
			}
		}
	}
	// Connectivity across every DC pair.
	per := cfg.HostsPerDC()
	for _, pr := range [][2]int{{0, per}, {0, 2 * per}, {per, 2 * per}, {2 * per, 0}} {
		ok, _ := probe(net, tp.Hosts[pr[0]], tp.Hosts[pr[1]], 1000)
		if !ok {
			t.Fatalf("no connectivity host %d → %d across DCs", pr[0], pr[1])
		}
	}
}

// TestBuildClusterOneShardMatchesBuild: a one-shard cluster holds the whole
// fabric and is the same simulation as Build on a standalone network — same
// NodeIDs, routing coord table, packet-ID sequence and RNG stream — and it
// binds no cross link, so the cluster has no lookahead window to step.
func TestBuildClusterOneShardMatchesBuild(t *testing.T) {
	cfg := smallConfig()
	net := netsim.New(21)
	want := MustBuild(net, cfg)
	cl := netsim.NewCluster(21, 1, 1)
	got, err := BuildCluster(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Lookahead() != 0 {
		t.Fatalf("one-shard cluster has lookahead %v: a cross link was bound", cl.Lookahead())
	}
	if !reflect.DeepEqual(got.coords, want.coords) {
		t.Fatal("coord tables differ")
	}
	if cl.Shard(0).NumNodes() != net.NumNodes() {
		t.Fatalf("%d nodes on the shard, %d on the standalone network", cl.Shard(0).NumNodes(), net.NumNodes())
	}
	for id := 0; id < net.NumNodes(); id++ {
		g, w := cl.Shard(0).Node(netsim.NodeID(id)), net.Node(netsim.NodeID(id))
		if g.ID() != w.ID() || g.Name() != w.Name() {
			t.Fatalf("node %d is %s (id %d), want %s (id %d)", id, g.Name(), g.ID(), w.Name(), w.ID())
		}
	}
	for i, h := range got.Hosts {
		if h.ID() != want.Hosts[i].ID() || h.Network() != cl.Shard(0) {
			t.Fatalf("host %d: id %d on shard %d, want id %d on shard 0",
				i, h.ID(), h.Network().Shard(), want.Hosts[i].ID())
		}
	}
	for i := 0; i < 5; i++ {
		if g, w := cl.Shard(0).NextPacketID(), net.NextPacketID(); g != w {
			t.Fatalf("packet id %d: got %d, want %d", i, g, w)
		}
		if g, w := cl.Shard(0).Rand.Uint64(), net.Rand.Uint64(); g != w {
			t.Fatalf("rng draw %d: got %#x, want %#x", i, g, w)
		}
	}
	ok, _ := probe(cl.Shard(0), got.Hosts[0], got.Hosts[cfg.HostsPerDC()+3], 1000)
	if !ok {
		t.Fatal("no inter-DC connectivity on the one-shard cluster")
	}
}

// TestBuildClusterShardCounts: one shard per DC binds the border links as
// cross links (the lookahead is their delay); any other count but one is
// refused.
func TestBuildClusterShardCounts(t *testing.T) {
	cfg := smallConfig()
	cl := netsim.NewCluster(22, 2, 1)
	tp, err := BuildCluster(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Lookahead() != cfg.InterLinkDelay {
		t.Fatalf("lookahead %v, want the border links' %v", cl.Lookahead(), cfg.InterLinkDelay)
	}
	for d, dc := range tp.DCs {
		if first, last := dc.Hosts[0], dc.Hosts[len(dc.Hosts)-1]; first.Network() != cl.Shard(d) || last.Network() != cl.Shard(d) {
			t.Fatalf("DC %d is not on shard %d", d, d)
		}
	}
	if _, err := BuildCluster(netsim.NewCluster(22, 3, 1), cfg); err == nil {
		t.Fatal("three shards for two DCs were accepted")
	}
}
