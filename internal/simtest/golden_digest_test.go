package simtest_test

// Golden-digest regression tests: each scenario below runs a small
// fixed-seed simulation with a netsim.DigestObserver attached and asserts
// the exact 64-bit fingerprint recorded when the scenario was frozen. Any
// accidental nondeterminism — map iteration in a hot path, an unseeded
// RNG, wall-clock leakage — perturbs the packet event stream and fails
// these immediately.
//
// If you change protocol or simulator behaviour *intentionally*, the
// digests move: rerun the tests and paste the new values from the failure
// message (each failure prints got/want). What these tests guarantee is
// only that the same binary produces the same digest every run; the
// companion checks in TestDigestIsRerunStable assert that property
// directly, so a golden update can never mask a determinism bug.

import (
	"testing"

	"uno/internal/baselines"
	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/lb"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/simtest"
	"uno/internal/transport"
)

const bw100G = int64(100e9)

// Golden fingerprints (regenerate by running the tests and copying the
// "got" value from the failure output).
const (
	goldenIncast     = 0x4d93670ec72fba85
	goldenIncastLoss = 0xc24b791fe7f07edb
	goldenDumbbell   = 0xa8468af8f8e84e62
)

// runIncast drives a 3-sender incast star (one far sender, mimicking an
// inter-DC competitor) to completion and returns the run digest.
func runIncast(t *testing.T, withLoss bool) uint64 {
	t.Helper()
	delays := []eventq.Time{
		eventq.Microsecond, 2 * eventq.Microsecond, 100 * eventq.Microsecond,
	}
	in := simtest.NewIncast(9, bw100G, delays, simtest.PortConfig())
	dg := netsim.NewDigestObserver(in.Net)
	in.Net.Observer = dg
	// The invariant checker wraps the digest: it forwards every event
	// unchanged and draws no randomness, so the goldens below must not move.
	ic := netsim.AttachInvariants(in.Net)
	defer assertNoViolations(t, ic)
	if withLoss {
		ge := failure.NewTable1Loss(failure.Setup1, rng.New(77))
		ge.PGoodToBad *= 1000
		in.Bottleneck.Link().SetLoss(ge)
	}
	var conns []*transport.Conn
	for i := range delays {
		flow := &transport.Flow{
			ID: netsim.FlowID(i + 1), Src: in.Senders[i], Dst: in.Recv,
			Size: 1 << 20, Start: in.Net.Now(),
		}
		params := transport.Params{MTU: 4096, BaseRTT: in.BaseRTT(i, 4096, bw100G)}
		conn, err := transport.Start(in.SenderEps[i], in.RecvEp, flow, params,
			baselines.NewMPRDMA(), &transport.FixedEntropy{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	in.Net.Sched.RunUntil(100 * eventq.Millisecond)
	for i, c := range conns {
		if !c.Completed() {
			t.Fatalf("incast flow %d did not complete", i)
		}
	}
	if dg.Events() == 0 {
		t.Fatal("digest observed no events")
	}
	return dg.Sum()
}

// runDumbbell drives one flow over the 4-path parallel dumbbell with
// per-packet spraying (entropy from the flow's RNG), exercising multipath
// reordering, and returns the run digest.
func runDumbbell(t *testing.T) uint64 {
	t.Helper()
	p := simtest.NewParallel(5, bw100G, 4, 5*eventq.Microsecond)
	dg := netsim.NewDigestObserver(p.Net)
	p.Net.Observer = dg
	ic := netsim.AttachInvariants(p.Net)
	defer assertNoViolations(t, ic)
	flow := &transport.Flow{ID: 1, Src: p.A, Dst: p.B, Size: 2 << 20, Start: 0}
	rtt := 4 * (5*eventq.Microsecond +
		netsim.SerializationTime(4096+transport.HeaderSize, bw100G))
	params := transport.Params{MTU: 4096, BaseRTT: rtt, DupAckThresh: 24}
	conn, err := transport.Start(p.EpA, p.EpB, flow, params,
		baselines.NewMPRDMA(), &lb.RPS{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Net.Sched.RunUntil(100 * eventq.Millisecond)
	if !conn.Completed() {
		t.Fatal("dumbbell flow did not complete")
	}
	return dg.Sum()
}

func TestGoldenDigestIncast(t *testing.T) {
	if got := runIncast(t, false); got != goldenIncast {
		t.Fatalf("incast digest moved: got %#016x, want %#016x\n(if the change is intentional, update goldenIncast)", got, uint64(goldenIncast))
	}
}

func TestGoldenDigestIncastWithLoss(t *testing.T) {
	if got := runIncast(t, true); got != goldenIncastLoss {
		t.Fatalf("lossy incast digest moved: got %#016x, want %#016x\n(if the change is intentional, update goldenIncastLoss)", got, uint64(goldenIncastLoss))
	}
}

func TestGoldenDigestDumbbell(t *testing.T) {
	if got := runDumbbell(t); got != goldenDumbbell {
		t.Fatalf("dumbbell digest moved: got %#016x, want %#016x\n(if the change is intentional, update goldenDumbbell)", got, uint64(goldenDumbbell))
	}
}

// TestDigestIsRerunStable asserts the property the goldens rely on
// directly: rerunning a scenario in-process yields the identical digest,
// and a different seed yields a different one.
func TestDigestIsRerunStable(t *testing.T) {
	a, b := runDumbbell(t), runDumbbell(t)
	if a != b {
		t.Fatalf("two identical dumbbell runs digest %#016x vs %#016x", a, b)
	}
	if x := runIncast(t, false); x == a {
		t.Fatalf("distinct scenarios share digest %#016x", a)
	}
}
