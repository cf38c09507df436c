#!/bin/sh
# ci.sh — the repository's tier-1 gate plus the race detector.
#
# Every simulation is a single-goroutine state machine per shard; the only
# sanctioned concurrency is the harness fan-out layer (harness.RunParallel)
# and a per-DC Sim's shard workers, so the race detector must stay clean
# across the whole tree. Run this before sending a PR:
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
# Tracked and not-yet-added files alike (--others), minus what .gitignore
# names (.bench_build/).
# shellcheck disable=SC2046
test -z "$(gofmt -l $(git ls-files --cached --others --exclude-standard '*.go'))" || {
    echo "ci: not gofmt-clean:"
    gofmt -l $(git ls-files --cached --others --exclude-standard '*.go')
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

# The whole suite once more under the race detector, uncached (-count=1), so
# no change rides a stale result. It carries every proof obligation the
# design rests on, each test choosing its own partition and worker counts:
# the shard count's (the sharded golden and the metamorphic worker-count
# equivalence on random scenarios and over every registry experiment, at 1
# and 2 workers; cross-shard conservation; what a one-shard Sim guarantees;
# the netsim cluster suite with its seeded dropped-handoff defect), the flow
# lifecycle's (recycled flow state: a completing sender returns its state to
# its own shard's free list while the other shard still serves its receiver,
# which then returns its own there, and a sharded Sim's pre-opened flows draw
# state from both shards' free lists between windows), the timing wheel's
# (the reference-model differential and stale-fire checks), the port hand-off's
# (timing oracle, event economy, the seeded invariant defects, failure
# sampled at serialization start), the EC block path's, and loss recovery's
# (DESIGN §5).
echo "== go test -race -count=1 ./... =="
go test -race -count=1 ./...

echo "ci: OK"
