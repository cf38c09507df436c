package simtest_test

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/transport"
)

// goldenFountainCell pins one cheap fountain-experiment cell — a 1 MiB
// inter-DC flow under the rateless LT scheme with Setup 1 correlated loss —
// on a one-shard Sim. The constant pins the rateless transport path
// (minted repair symbols, dynamic schedule entries, NACK-driven recovery).
// The cell forces its scheme per flow, so UNO_EC does not move it.
const goldenFountainCell = 0x5d6ccc89e0aeac88

// TestGoldenFountainCell pins the fountain cell digest. Regenerate like the
// other goldens: run the test and copy the "got" value.
func TestGoldenFountainCell(t *testing.T) {
	if netsim.ShardDefault() > 0 {
		t.Skip("fountain cell golden is pinned for the whole fabric on one shard (UNO_SHARDS=off)")
	}
	res := harness.FountainCell(42, transport.SchemeFountain, failure.Setup1,
		0, 1<<20, 30*eventq.Millisecond)
	if !res.Completed {
		t.Fatal("golden fountain cell flow did not complete")
	}
	if res.Digest != goldenFountainCell {
		t.Fatalf("fountain cell digest moved: got %#016x, want %#016x\n(if the change is intentional, update goldenFountainCell)",
			res.Digest, uint64(goldenFountainCell))
	}
	again := harness.FountainCell(42, transport.SchemeFountain, failure.Setup1,
		0, 1<<20, 30*eventq.Millisecond)
	if again.Digest != res.Digest {
		t.Fatalf("fountain cell digest not rerun-stable: %#016x then %#016x",
			res.Digest, again.Digest)
	}
}
