GO ?= go

# Benchmarks the CI bench-regression job gates on: cmd/benchdiff
# compares per-benchmark medians over BENCH_COUNT repeats and fails on
# >20% regressions in ns/op, B/op, or allocs/op (runs carry -benchmem).
# Benchmarks matching ZERO_ALLOC must additionally report a median of
# exactly 0 allocs/op. CI and local runs share these definitions.
# BenchmarkSearchCachedWarm and BenchmarkVegaLiteCached guard the warm
# read path: a Search that re-ranks instead of reading the rank| entry,
# stops caching its answer, or a Vega-Lite spec rendered per request
# multiplies their ns/op. BenchmarkDedupe and BenchmarkRankOrder guard
# two layers of the cold miss: Dedupe formatting values as text again,
# or the Hasse reduction sorting and allocating per node.
BENCH_PATTERN ?= BenchmarkTable_SearchSpace|BenchmarkGraphBuild|BenchmarkExecute|BenchmarkTopKCached|BenchmarkSearchCachedWarm|BenchmarkVegaLiteCached|BenchmarkDedupe|BenchmarkRankOrder|BenchmarkBuildGraphParallel|BenchmarkAppend|BenchmarkSnapshotTopK|BenchmarkWALAppend|BenchmarkRecovery|BenchmarkColumnarStats|BenchmarkFeatureExtract|BenchmarkNLQParse|BenchmarkAskWarm|BenchmarkAskCold
BENCH_PKGS ?= . ./internal/nlq/
ZERO_ALLOC ?= BenchmarkColumnarStats|BenchmarkFeatureExtract
BENCH_COUNT ?= 6
BENCHTIME ?= 0.3s
COVER_FLOOR ?= 75.0

.PHONY: all build test vet bench race fuzz experiments clean \
	bench-smoke bench-run bench-diff bench-alloc-check cover-check \
	crash-test load-smoke load-soak cluster-smoke chaos-smoke lint

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short-mode run for quick iteration (skips the slow training pipeline
# and full-scale smoke tests).
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Full suite under the race detector (exercises the parallel executor,
# the server limiter, and the cancellation paths).
race:
	$(GO) test -race ./...

# Brief fuzzing session over every fuzz target.
fuzz:
	$(GO) test -fuzz FuzzParse$$ -fuzztime 30s ./internal/vizql/
	$(GO) test -fuzz FuzzParseMulti -fuzztime 30s ./internal/vizql/
	$(GO) test -fuzz FuzzFromCSV -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzInferColumn -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzRawQ -fuzztime 30s ./internal/rank/
	$(GO) test -fuzz FuzzComputeFactors -fuzztime 30s ./internal/rank/
	$(GO) test -fuzz FuzzAppend$$ -fuzztime 30s ./internal/registry/
	$(GO) test -fuzz FuzzWALReplay -fuzztime 30s ./internal/registry/
	$(GO) test -fuzz FuzzReplicationFrame -fuzztime 30s ./internal/cluster/
	$(GO) test -fuzz FuzzParseScenario -fuzztime 30s ./internal/load/
	$(GO) test -fuzz FuzzParseNLQ -fuzztime 30s ./internal/nlq/

# Fault-injection and crash-consistency suite under the race detector:
# every-byte WAL truncation/corruption, compaction crash windows,
# kill-and-restart recovery, read-only degradation, and the cluster
# replication-stream fault suite (every-byte cuts/corruption, degraded
# followers, follower kill-restart mid-catch-up).
crash-test:
	$(GO) test -race -run 'Crash|Recovery|Recovered|ReadOnly|Torn|Corrupt|Compaction|Durable|KillAndRestart|Evict|Sticky|Replication|KillRestart' \
		./internal/wal/ ./internal/registry/ ./internal/cluster/ .

# One-iteration pass over the gated benchmarks: catches benchmarks that
# fail outright without paying for timing runs.
bench-smoke:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchtime=1x $(BENCH_PKGS)

# Repeated timed run whose output feeds bench-diff.
# Usage: make bench-run OUT=pr.txt
bench-run:
	@test -n "$(OUT)" || { echo "usage: make bench-run OUT=file.txt"; exit 2; }
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCHTIME) $(BENCH_PKGS) > $(OUT)
	@cat $(OUT)

# Compare two bench-run outputs; exits nonzero on a >20% median
# regression in ns/op, B/op, or allocs/op, or when a ZERO_ALLOC
# benchmark allocates. Usage:
#   make bench-diff OLD=main.txt NEW=pr.txt [JSON=BENCH_PR2.json]
bench-diff:
	@test -n "$(OLD)" && test -n "$(NEW)" || { echo "usage: make bench-diff OLD=old.txt NEW=new.txt [JSON=out.json]"; exit 2; }
	$(GO) run ./cmd/benchdiff -old $(OLD) -new $(NEW) -zero-alloc '$(ZERO_ALLOC)' $(if $(JSON),-json $(JSON))

# Zero-alloc gate alone (no baseline needed): one -benchmem run of the
# gated kernels, checked by benchdiff.
bench-alloc-check:
	$(GO) test -run XXX -bench '$(ZERO_ALLOC)' -benchmem -count=3 -benchtime=$(BENCHTIME) . > $(or $(OUT),/tmp/bench-alloc.txt)
	$(GO) run ./cmd/benchdiff -new $(or $(OUT),/tmp/bench-alloc.txt) -zero-alloc '$(ZERO_ALLOC)'

# Static analysis beyond go vet, matching the CI lint job. The versions
# are pinned here so CI and local runs agree; install with:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
#   go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4
lint:
	@command -v staticcheck >/dev/null || { \
		echo "staticcheck not found; install: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; exit 2; }
	staticcheck ./...
	@command -v govulncheck >/dev/null || { \
		echo "govulncheck not found; install: go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; exit 2; }
	govulncheck ./...

# Whole-module coverage with the CI floor.
cover-check:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t + 0 < f + 0) }'

# Regenerate every table and figure of the paper's evaluation.
# Usage: make experiments [EXP_OUT=testdata/experiment_output.txt]
experiments:
	$(GO) run ./cmd/deepeye-bench -exp all -scale 0.1 $(if $(EXP_OUT),-out $(EXP_OUT))

# 15s canned load scenario against an in-process server: fails on any
# hard error, fingerprint mismatch, reconciliation gap, leak, or a
# pathological p99. CI uploads the JSON summary as an artifact.
# Usage: make load-smoke [LOAD_JSON=load-summary.json]
load-smoke:
	$(GO) run ./cmd/deepeye-load -scenario testdata/scenarios/smoke.scenario \
		-inprocess -fail-on-error -p99-ceiling 10s -max-goroutine-growth 50 \
		$(if $(LOAD_JSON),-json $(LOAD_JSON))

# 12s mixed load round-robined across a 3-node in-process replicated
# cluster: leader forwarding, WAL shipping, and min_epoch
# read-your-writes reads all under fire, with append fingerprints
# verified and the cluster-wide request ledger reconciled exactly
# (Σ requests − Σ forwarded over every member == client counts).
# Usage: make cluster-smoke [LOAD_JSON=cluster-summary.json]
cluster-smoke:
	$(GO) run ./cmd/deepeye-load -scenario testdata/scenarios/cluster.scenario \
		-inprocess -fail-on-error -p99-ceiling 10s -max-goroutine-growth 75 \
		$(if $(LOAD_JSON),-json $(LOAD_JSON))

# 12s chaos run: the cluster scenario plus a scripted 5s network
# partition of one follower. Heartbeats must walk the cut node to
# down (tripping circuit breakers so forwarded traffic sheds fast
# 503 peer_down instead of stacking timeouts), shipper queues must
# stay under the scenario's 256 KiB cap by collapsing overflow into
# snapshot-resync markers, and after the heal every member must
# reconverge to bit-identical per-dataset epochs and fingerprints
# within the budget — with the request ledger still reconciling
# exactly. The goroutine budget is wider than cluster-smoke's: the
# partition tears down every peer connection and the heal re-opens
# them, so the post-run idle keep-alive pool (two goroutines per
# connection) legitimately sits higher than the post-warmup baseline.
# Usage: make chaos-smoke [LOAD_JSON=chaos-summary.json]
chaos-smoke:
	$(GO) run ./cmd/deepeye-load -scenario testdata/scenarios/chaos.scenario \
		-inprocess -fail-on-error -p99-ceiling 10s -max-goroutine-growth 150 \
		$(if $(LOAD_JSON),-json $(LOAD_JSON))

# 60s write-heavy soak with a deliberately small registry: eviction,
# TTL sweeps, and WAL compaction fire under load while every append
# fingerprint is verified and the leak gates stay armed.
load-soak:
	$(GO) run ./cmd/deepeye-load -scenario testdata/scenarios/soak.scenario \
		-inprocess -soak $(if $(LOAD_JSON),-json $(LOAD_JSON))

clean:
	$(GO) clean ./...
