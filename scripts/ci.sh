#!/bin/sh
# ci.sh — the repository's tier-1 gate plus the race detector.
#
# Every simulation is a single-goroutine state machine; the only sanctioned
# concurrency is the harness fan-out layer (harness.RunParallel), so the
# race detector must stay clean across the whole tree. Run this before
# sending a PR:
#
#   ./scripts/ci.sh
#
# or via make: `make ci` (see the Makefile; `make test` is the quicker
# tier-1-only gate).
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== gofmt =="
# shellcheck disable=SC2046
test -z "$(gofmt -l $(git ls-files '*.go'))" || {
    echo "ci: not gofmt-clean:"
    gofmt -l $(git ls-files '*.go')
    exit 1
}

# bench/ is its own module (uno/bench, reaching uno/internal/... through a
# replace), so the root module's build, vet and tests never see it — and a
# PR that claims a gain may not edit it. This is the one place an internal
# API change that breaks the benchmark (transport.Open/Start, Conn.Stats
# after completion, eventq.NewTimer, the simtest helpers, harness.Sim's
# Sharded/Cluster/Net/ObserveShard) is caught before the benchmark itself is
# run.
echo "== bench module: go vet + go test =="
go -C bench vet ./...
go -C bench test ./...

echo "== go test ./... (with coverage profile) =="
go test -coverprofile=coverage.out ./...

# Soft coverage gate: warn — never fail — if total statement coverage
# drops below the committed baseline (scripts/coverage_baseline.txt,
# refreshed deliberately when coverage moves for a good reason).
TOTAL="$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
rm -f coverage.out
BASELINE_FILE=scripts/coverage_baseline.txt
if [ -f "$BASELINE_FILE" ]; then
    BASELINE="$(cat "$BASELINE_FILE")"
    echo "== coverage gate (soft): total ${TOTAL}%, baseline ${BASELINE}% =="
    if awk -v t="$TOTAL" -v b="$BASELINE" 'BEGIN { exit !(t < b - 0.2) }'; then
        echo "ci: WARNING: coverage ${TOTAL}% is below baseline ${BASELINE}% (soft gate, not fatal; refresh $BASELINE_FILE if the drop is intentional)"
    fi
else
    echo "${TOTAL}" > "$BASELINE_FILE"
    echo "ci: wrote initial coverage baseline ${TOTAL}% to $BASELINE_FILE"
fi

# Worker-count independence stated as a golden: a fixed dual-DC scenario
# whose committed digest the per-DC partition must reproduce byte-for-byte
# at UNO_SHARDS 1 and 2, with cluster invariant observers attached. The
# simtest goldens (hand-wired single networks, the tournament cell) are
# pinned for one shard and already ran, with invariants attached, in the
# full suite above.
for sh in 1 2; do
    echo "== sharded golden, UNO_SHARDS=$sh =="
    UNO_SHARDS=$sh go test -count=1 -run 'TestShardedGoldenDigest' ./internal/harness/
done

# A ring collective needs a one-shard Sim, so the facade's ring test and
# example build theirs explicitly; a sharded process default must not
# reach them.
echo "== ring collectives, UNO_SHARDS=1 =="
UNO_SHARDS=1 go test -count=1 -run 'TestFacadeRingAllreduce|ExampleStartRing' .

# The shard count's proof obligations run explicitly under the race
# detector with caching disabled: the metamorphic worker-count equivalence
# property on random scenarios and over every registry experiment, the
# cross-shard conservation ledger on the dual-DC fat-tree, what a one-shard
# Sim guarantees, and the netsim cluster suite (handoff determinism, strided
# packet IDs, clusters without cross links, the seeded dropped-handoff defect
# the ledger must catch). The harness flow-lifecycle tests ride along: a
# completing sender mutates its source shard's demux map and releases timers
# while the other shard still serves the flow's receiver, and the interned
# UnoCC configurations are read from both shards.
echo "== shard-count property + flow lifecycle tests, -race -count=1 =="
for sh in 1 2; do
    UNO_SHARDS=$sh go test -race -count=1 \
        -run 'TestShardedGoldenDigest|TestShardEquivalenceProperty|TestShardedFatTreeConservation|TestFatTreeFlowConservation|TestOneShardSim|TestFlowLifecycleOnEveryEngine|TestConnsSeesStartedFlows' \
        ./internal/harness/
done
# The registry-wide equivalence test sets both worker counts itself, so
# UNO_SHARDS does not reach it: once is enough (about four minutes under the
# race detector).
go test -race -count=1 -run 'TestRegistryShardEquivalence' ./internal/harness/
go test -race -count=1 -run 'TestCluster|TestBindCross|TestRunBefore' \
    ./internal/netsim/ ./internal/eventq/
# The lifecycle tests below the harness build their own two-host fabrics, so
# UNO_SHARDS does not reach them: once is enough.
go test -race -count=1 \
    -run 'TestSequentialFlowsLeaveNothingBehind|TestFlowAllocationBudget|TestScheduleEntryAllocationBudget|TestLatePacketsForCompletedSender|TestEndpointAccessors|TestTimerRelease|TestTimerResetAfterRelease|TestQuickAdaptTimerEndsWithFlow|TestConfigPool' \
    ./internal/transport/ ./internal/eventq/ ./internal/core/

# The eventq property tests (wheel-vs-reference-model fire sequences over
# fire-and-forget events and timers, stale-fire checks) are the proof obligations of the wheel layout; run them
# explicitly under the race detector with caching disabled so a wheel change
# can never ride a stale cache entry through the full -race sweep below.
echo "== eventq property tests, -race -count=1 =="
go test -race -count=1 \
    -run 'TestWheelModelDifferential|TestRandomInterleavingNoStaleFires' \
    ./internal/eventq/

# The transmit hand-off's proof obligations (a port hands its packet to the
# link when serialization starts and wakes up only when something waits):
# the timing oracle against the eager reference port, the event-economy
# pins, the two seeded defects the invariant checker must catch, the
# failure rule — link state and loss sampled at serialization start — and
# the packet header layout a hop reads within one cache line.
echo "== port hand-off oracle, event economy, failure semantics, -race -count=1 =="
go test -race -count=1 \
    -run 'TestPortTimingOracle|TestPortEventEconomy|TestQueuedPacketPathAllocFree|TestInvariantMutation|TestInvariantDetectsStrandedQueue|TestLinkStateSampledAtSerializationStart|TestFlapperFasterThanSerialization|TestPacketHotFieldsFirstCacheLine' \
    ./internal/netsim/ ./internal/failure/

# The EC block-path regression suite — satisfyBlock release accounting
# under stale/hostile AckBlock, NACK-exhaustion no-rearm, RS(8,2) block
# completion, and tail-block schedule accounting — runs explicitly with
# caching disabled so a transport change can never ride a stale cache entry
# through the full -race sweep below.
echo "== EC block-path regressions, -race -count=1 =="
go test -race -count=1 \
    -run 'TestSatisfyBlock|TestBlockNack|TestBlockCompletion|TestAckBlockOutOfRange|TestTailBlock|TestRSTailBlock|TestGilbertElliottDegenerateParams' \
    ./internal/transport/ ./internal/failure/

# Loss recovery's proof obligations (DESIGN §5, "Loss recovery"), one test
# per repair and each failing without it: the first timeout resends what is
# one RTO old, n timeouts need n losses, nothing times out before the first
# RTT sample, a one-path flow's ACKs return on one path in send order, the
# spurious-retransmission counter, the incast retransmit budget on the
# fat-tree, UnoLB re-routing a subflow whose ACK path died — plus the RTO
# arithmetic and the Conn size class the new counter had to fit into. Same
# reason as the cell above: a transport change must not ride a cached result.
echo "== loss recovery, -race -count=1 =="
go test -race -count=1 \
    -run 'TestLossRecovery|TestRTOSaturatedBackoffNoOverflow|TestRTORecoversTailLoss|TestUnoLBReroutesSubflowWithDeadAckPath|TestConnSizeClass' \
    ./internal/transport/ ./internal/core/ ./internal/harness/

# Native fuzz targets, briefly: the differential scheduler fuzzer (opcodes 2,
# 5 and 6 are aliases kept so older corpus entries decode the same), the
# transport packet-header fuzzer (hostile data at the receiver, hostile
# ACKs, NACKs and CNMs at the sender — a seed pins the sender's old panic on
# an ACK past the schedule), and the fountain GF(2) decoder fuzzer, which
# keeps the codec the bench drive measures honest, each get a short budget
# per CI run (the corpus accumulates in the build cache across runs;
# crashes fail CI).
FUZZTIME="${UNO_FUZZTIME:-10s}"
echo "== fuzz smoke, -fuzztime $FUZZTIME each =="
go test -run '^$' -fuzz '^FuzzSchedulerOps$' -fuzztime "$FUZZTIME" ./internal/eventq/
go test -run '^$' -fuzz '^FuzzReceiverPacket$' -fuzztime "$FUZZTIME" ./internal/transport/
go test -run '^$' -fuzz '^FuzzFountainDecode$' -fuzztime "$FUZZTIME" ./internal/ec/

echo "== go test -race ./... =="
go test -race ./...

echo "ci: OK"
