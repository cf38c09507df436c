package simtest_test

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/harness"
	"uno/internal/netsim"
)

// goldenTournamentCell pins one cheap tournament cell — MPRDMA vs BBR under
// the mixed-128x regime — on a one-shard Sim, pinning the coexistence
// harness's packet stream.
const goldenTournamentCell = 0x471bf442811cc4a5

// TestGoldenTournamentCell pins the coexistence tournament's cell digest.
// Regenerate like the other goldens: run the test and copy the "got" value.
func TestGoldenTournamentCell(t *testing.T) {
	if netsim.ShardDefault() > 0 {
		t.Skip("tournament cell golden is pinned for the whole fabric on one shard (UNO_SHARDS=off)")
	}
	var mprdma, bbr harness.Contender
	for _, c := range harness.Contenders() {
		switch c.Name {
		case "mprdma":
			mprdma = c
		case "bbr":
			bbr = c
		}
	}
	var mixed harness.Regime
	for _, r := range harness.TournamentRegimes() {
		if r.Name == "mixed-128x" {
			mixed = r
		}
	}
	res := harness.TournamentCell(42, mprdma, bbr, mixed, 4*eventq.Millisecond)
	if res.Digest != goldenTournamentCell {
		t.Fatalf("tournament cell digest moved: got %#016x, want %#016x\n(if the change is intentional, update goldenTournamentCell)",
			res.Digest, uint64(goldenTournamentCell))
	}
	again := harness.TournamentCell(42, mprdma, bbr, mixed, 4*eventq.Millisecond)
	if again.Digest != res.Digest {
		t.Fatalf("tournament cell digest not rerun-stable: %#016x then %#016x",
			res.Digest, again.Digest)
	}
}
