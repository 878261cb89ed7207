# Developer entry points. CI runs the same targets.

GO       ?= go
GOFLAGS  ?=

# The hot-path micro-benchmarks `make bench` prints: the scheme executors
# (the matching hot path this engine optimizes), the blocking stage, cover
# preparation over the shared candidate table, and the matcher-level
# micro-benchmarks (grounding, warm Match, the verdict memo's hit and
# miss paths, and MAP inference on the largest HEPTH-like 0.4
# neighborhood, on one network and as MatchIDs solves it). Gains are
# claimed with bench-pair, not these.
SCHEME_BENCH   = ^Benchmark(NoMP|SMP|MMP|UB|Full|Blocking|Pipeline|Setup|PrepareCover)
MATCHER_BENCH  = ^Benchmark(New|MatchWarm|MemoHit|MemoMiss|SolveMAP)$$
BENCHTIME     ?= 5x
# The matcher micro-benchmarks are microsecond-scale; at single-digit
# iteration counts their numbers are dominated by pool warm-up and
# scheduler noise (a 40µs op sampled 3 times swings ±50%), so they get
# their own, much higher iteration floor.
MATCHER_BENCHTIME ?= 500x

.PHONY: build test race bench bench-once cover cover-check fuzz fmt vet docs-check clean chaos-smoke store-smoke bench-smoke bench-frozen bench-pair

build:
	$(GO) build $(GOFLAGS) ./...

test:
	$(GO) test $(GOFLAGS) ./...

race:
	$(GO) test $(GOFLAGS) -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet $(GOFLAGS) ./...

# docs-check fails when the README names a path that does not exist: the
# package of a `go run ./…` command, or a code-span path in one of the
# cmd, internal, scripts, testdata, match or examples trees. CI runs it in
# the lint job.
docs-check:
	bash scripts/docs-check.sh README.md

# bench prints the hot-path benchmark table; its blocking command is the
# blocking stage at the workloads' sizes and at scale 8, batch and
# incremental, and its cover and candidate steps as a cold run pays for
# them. The last two are the warm path: the serve-ingest stream folded
# through Pipeline.Update (per batch, with the kernel calls and name parses
# the stream made), and the same stream POSTed to an in-process service.
bench:
	$(GO) test $(GOFLAGS) -run '^$$' -bench '$(SCHEME_BENCH)' -benchmem -benchtime $(BENCHTIME) .
	$(GO) test $(GOFLAGS) -run '^$$' -bench '$(MATCHER_BENCH)' -benchmem -benchtime $(MATCHER_BENCHTIME) ./internal/mln/
	$(GO) test $(GOFLAGS) -run '^$$' -bench '^BenchmarkRulesSMP' -benchmem -benchtime 20x -cpu 1 ./internal/rules/
	$(GO) test $(GOFLAGS) -run '^$$' -bench '^Benchmark(Canopies|IndexAdd|BuildCoverHEPTH|FinishCoverHEPTH|CandidatePairsHEPTH)$$' -benchmem -benchtime $(BENCHTIME) ./internal/canopy/
	$(GO) test $(GOFLAGS) -run '^$$' -bench '^BenchmarkUpdateFold$$' -benchmem -benchtime $(BENCHTIME) .
	$(GO) test $(GOFLAGS) -run '^$$' -bench '^BenchmarkIngest$$' -benchmem -benchtime $(BENCHTIME) ./internal/serve/

# bench-once runs every benchmark of the module for one iteration: a
# benchmark that checks itself (BenchmarkMemoHit fails unless every
# iteration hits, BenchmarkMemoMiss unless none does) or no longer
# compiles fails here, not at the next `make bench`. About 15 s on 2 vCPUs.
# CI runs it in the test job.
bench-once:
	$(GO) test $(GOFLAGS) -run '^$$' -bench . -benchtime 1x ./...

# cover runs the test suite with a coverage profile and grades it
# against the committed ratchet; cover-check grades an existing
# coverage.out (CI reuses the race run's profile). The floor in
# coverage_floor.txt only ever moves up — raise it when coverage grows,
# never lower it to make a regression pass.
cover:
	$(GO) test $(GOFLAGS) -covermode=atomic -coverprofile=coverage.out ./...
	$(MAKE) cover-check

cover-check:
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat coverage_floor.txt); \
	echo "total coverage: $${total}% (committed floor: $${floor}%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' \
	  || { echo "FAIL: total coverage $${total}% dropped below the committed floor $${floor}%"; exit 1; }

# store-smoke drives the emserve binary on a state directory end to end
# as a black box: start, POST, GET, SIGTERM, assert the directory is a
# journal plus a store, restart, POST, SIGKILL with no drain, restart.
# Each restart must serve the byte-identical state reopened from the store
# snapshot with ZERO neighborhood evaluations (the matcher counter stays
# 0). CI runs it as its own job.
store-smoke:
	bash scripts/store-smoke.sh

# chaos-smoke drives the sharded backend with real OS processes: a
# coordinator against 3 emworker processes, one SIGKILLed at its round-2
# assignment, asserting the match set stays byte-identical to a cold
# single-process run. CI runs it as its own job.
chaos-smoke:
	bash scripts/chaos-smoke.sh

# bench-smoke vets and tests the bench/ module. It is its own Go module
# (repro/bench, replace repro => ../), so `go build ./... && go test
# ./...` at the root never compiles it, yet it calls core.SMP, core.MMP,
# core.Config and the Runner options directly. CI runs it in the test job.
bench-smoke: bench-frozen
	cd bench && $(GO) vet ./... && $(GO) test $(GOFLAGS) ./...

# bench-frozen fails when a change edits what it is measured with. The
# driver measures a change against its parent with the parent's bench/ and
# BENCHMARK.json, and rejects one that touches them (PR 14 was thrown away
# for exactly that); a benchmark edit is a change of its own that claims no
# gain. Two checks: nothing uncommitted or untracked under those paths, and
# no difference from BENCH_BASE, the commit the change is measured against:
# CI passes the merge base with the target branch, a committed local change
# passes its parent (BENCH_BASE=HEAD~1); the default only sees the work tree.
BENCH_BASE ?= HEAD
bench-frozen:
	@dirty="$$(git status --porcelain -- bench BENCHMARK.json)"; \
	 if [ -n "$$dirty" ]; then echo "FAIL: uncommitted changes under the frozen benchmark paths:"; echo "$$dirty"; exit 1; fi
	@git diff --quiet $(BENCH_BASE) -- bench BENCHMARK.json \
	 || { echo "FAIL: bench/ or BENCHMARK.json differ from $(BENCH_BASE):"; git diff --stat $(BENCH_BASE) -- bench BENCHMARK.json; exit 1; }

# bench-pair is how a change claims or disclaims a gain: N alternating
# parent/change pairs of one benchmark workload (the parent checked out into
# a temporary worktree, the change being the work tree), then per end-to-end
# metric both medians, quartiles, pairs won and the verdict by the rule in
# bench/README.md. About 50 s per pair. BENCH=Name pairs the Go benchmark
# BenchmarkName of package PKG (default the module root) instead, run with
# -benchtime $(BENCHTIME); WORKLOAD and SEED are then unused.
#   make bench-pair WORKLOAD=hepth-schemes PARENT=HEAD~1 N=10 SEED=42
#   make bench-pair BENCH=Ingest PKG=./internal/serve/ PARENT=HEAD~1 N=10
WORKLOAD ?= hepth-schemes
PARENT   ?= HEAD
N        ?= 10
SEED     ?= 42
BENCH    ?=
PKG      ?= .
bench-pair:
	BENCH='$(BENCH)' PKG='$(PKG)' BENCHTIME='$(BENCHTIME)' bash scripts/bench-pair.sh $(WORKLOAD) $(PARENT) $(N) $(SEED)

# fuzz smoke-runs the correctness-critical fuzz targets: dense-vs-naive
# scoring, the verdict memo against the unmemoized matcher, the closed-form
# MAP solves against Dinic's network, the engine's evidence bitset against a
# plain pair set, the message store's DSU against a list of merged pair
# sets, the candidate table (search, scoping, support join) against
# brute force, re-activation's entity-level walk against the per-visit one,
# the ground-once rules engine against the evaluator it replaced,
# the wire codec round trip, the name kernels against their
# retained references (both Jaro loops; and NameLevel's symmetry, which the
# dataset's level cache relies on), the open-addressed table of blocking's
# pair relations (that cache, the aligned memo, the candidates) against a
# plain map, and blocking — sharded vs serial canopies, the row
# scorer vs the per-record one it replaced, incremental vs scratch covers,
# index blob loading, and the durability trail over arbitrary directory
# listings (the nightly CI job runs every Fuzz* target, found by name, for
# longer).
fuzz:
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzJaroMatchesReference$$' -fuzztime 10s ./internal/similarity/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzNameLevelSymmetric$$' -fuzztime 10s ./internal/similarity/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzTableModel$$' -fuzztime 10s ./internal/flat/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz FuzzDenseLogScore -fuzztime 10s ./internal/mln/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzMemoDifferential$$' -fuzztime 10s ./internal/mln/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzPairMAP$$' -fuzztime 10s ./internal/mln/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzSolveSmall$$' -fuzztime 10s ./internal/mln/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzEvidenceModel$$' -fuzztime 10s ./internal/core/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzMessageStoreModel$$' -fuzztime 10s ./internal/core/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzCandidateTable$$' -fuzztime 10s ./internal/core/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzAffectedMatchesOld$$' -fuzztime 10s ./internal/core/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzDenseMatchesOld$$' -fuzztime 10s ./internal/rules/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzShardedCanopiesIdentical$$' -fuzztime 10s ./internal/canopy/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzCanopiesMatchOld$$' -fuzztime 10s ./internal/canopy/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzIndexAdd$$' -fuzztime 10s ./internal/canopy/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzLoadIndex$$' -fuzztime 10s ./internal/canopy/
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzStateBlob$$' -fuzztime 10s .
	$(GO) test $(GOFLAGS) -run '^$$' -fuzz '^FuzzTrailScan$$' -fuzztime 10s ./internal/store/

clean:
	$(GO) clean ./...
