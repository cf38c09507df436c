# Tier-1 verification (the gate every PR must keep green) and the fuller
# CI path with vet + the race detector.

.PHONY: build test vet race ci bench fuzz

build:
	go build ./...

# Tier-1: what ROADMAP.md requires to stay no worse than the seed.
test: build
	go test ./...

vet:
	go vet ./...

# Each shard of a Sim runs on one goroutine at a time; the harness fan-out
# layer (RunParallel) and a per-DC Sim's shard workers are the only
# sanctioned concurrency. Keep it race-clean, uncached (-count=1) as
# scripts/ci.sh runs it, so no change rides a stale result.
race:
	go test -race -count=1 ./...

ci:
	./scripts/ci.sh

# Longer fuzzing sessions than the CI smoke (override with FUZZTIME=5m).
FUZZTIME ?= 60s
fuzz:
	go test -run '^$$' -fuzz '^FuzzSchedulerOps$$' -fuzztime $(FUZZTIME) ./internal/eventq/
	go test -run '^$$' -fuzz '^FuzzReceiverPacket$$' -fuzztime $(FUZZTIME) ./internal/transport/
	go test -run '^$$' -fuzz '^FuzzFountainDecode$$' -fuzztime $(FUZZTIME) ./internal/ec/

# The repository benchmark (BENCHMARK.json): four workloads, eight bounded
# end-to-end metrics. Compare two commits with scripts/bench_ab.sh.
bench:
	bash bench/run.sh
