package topo

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
)

// FuzzBuildCluster builds the fabric from hostile configs — zero and
// negative delays, line rates and queue capacities, every switch-feature
// flag — on one shard or on one shard per DC. BuildCluster must return an
// error or a topology, never panic inside netsim; a built topology has every
// host, and per-DC shards get the border links' delay as their lookahead.
// K (0–9), NumDCs (0–3) and BorderLinks (at most 16) are bounded so that one
// build stays small.
func FuzzBuildCluster(f *testing.F) {
	def := DefaultConfig()
	add := func(c Config, perDC bool) {
		var flags uint8
		for i, on := range []bool{c.PhantomEnabled, c.Trimming, c.QCN, perDC} {
			if on {
				flags |= 1 << i
			}
		}
		f.Add(uint8(c.K), uint8(c.NumDCs), int8(c.BorderLinks), c.LinkBps,
			int64(c.IntraLinkDelay), int64(c.InterLinkDelay), c.QueueCapIntra, c.QueueCapInter, flags)
	}
	// The configs that used to panic: a zero-delay border link between
	// shards, negative delays, and a phantom drain rate truncated to zero.
	zero := def
	zero.InterLinkDelay = 0
	add(zero, true)
	negInter := def
	negInter.InterLinkDelay = -1
	add(negInter, false)
	negIntra := def
	negIntra.IntraLinkDelay = -eventq.Microsecond
	add(negIntra, false)
	slow := def
	slow.LinkBps = 1
	slow.PhantomEnabled = true
	add(slow, false)
	f.Fuzz(func(t *testing.T, k, dcs uint8, border int8, bps, intra, inter, capIntra, capInter int64, flags uint8) {
		cfg := Config{
			K:              int(k % 10),
			NumDCs:         int(dcs % 4),
			LinkBps:        bps,
			BorderLinks:    int(border) % 17,
			IntraLinkDelay: eventq.Time(intra),
			InterLinkDelay: eventq.Time(inter),
			QueueCapIntra:  capIntra,
			QueueCapInter:  capInter,
			PhantomEnabled: flags&1 != 0,
			Trimming:       flags&2 != 0,
			QCN:            flags&4 != 0,
		}
		shards := 1
		if flags&8 != 0 && cfg.NumDCs > 1 {
			shards = cfg.NumDCs
		}
		cl := netsim.NewCluster(1, shards, 1)
		tp, err := BuildCluster(cl, cfg)
		if err != nil {
			return
		}
		if got, want := len(tp.Hosts), cfg.NumDCs*cfg.HostsPerDC(); got != want {
			t.Fatalf("%+v: built %d hosts, want %d", cfg, got, want)
		}
		if shards > 1 && cl.Lookahead() != cfg.InterLinkDelay {
			t.Fatalf("%+v: lookahead %v, want the border links' %v", cfg, cl.Lookahead(), cfg.InterLinkDelay)
		}
	})
}
