GO ?= go

.PHONY: all build fmt test race vet ddlvet vetbench benchcheck bench loadbench leaderboard smoke cover fuzz verify

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when anything in the tree is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Project-specific determinism/concurrency checks (DESIGN.md §7, §11);
# exits non-zero on any non-suppressed diagnostic.
ddlvet:
	$(GO) run ./cmd/ddlvet ./...

# ddlvet self-run benchmark + wall-clock budget: the analysis engine runs
# over this repository and must finish inside DDLVET_BUDGET_SECONDS
# (default 120s), so a dataflow-engine perf regression fails the build
# instead of silently slowing every commit.
vetbench:
	$(GO) test ./internal/analysis/ -run TestDdlvetSelfRunBudget -v
	$(GO) test ./internal/analysis/ -run '^$$' -bench 'BenchmarkDdlvet' -benchtime 2x -benchmem

# -shuffle=on randomizes test order so inter-test state dependence fails
# loudly instead of passing by accident. -cover and $(TEST_OUT) let the
# coverage gate read this run instead of paying for the suite again.
TEST_OUT ?= test.out
test:
	$(GO) test -shuffle=on -cover ./... >$(TEST_OUT) 2>&1; s=$$?; cat $(TEST_OUT); exit $$s

# Short mode keeps the race pass fast; the full suite runs race-free logic
# anyway and CI mirrors this target.
race:
	$(GO) test -race -short ./...

# bench/ (what BENCHMARK.json runs) is a module of its own, outside root
# `go vet ./...` and `go test ./...`; without this a root API change that
# breaks it is found only when the benchmark pipeline runs.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Micro-benchmarks, including the embed fast path against the tape-based
# reference (BenchmarkGHNEmbedResNet50 vs BenchmarkGHNEmbedResNet50Reference).
# Regressions are gated by the layered benchmark in bench/ (BENCHMARK.json).
bench: vetbench
	$(GO) test -bench . -benchmem -run '^$$' ./internal/tensor/ ./internal/ghn/ ./internal/graph/ ./internal/core/
	$(GO) test -bench 'GHNEmbed|GraphBuild' -benchmem -run '^$$' .

# Serving status contract (DESIGN.md §12): ddlload stands up an in-process
# synthetic controller, then a two-replica gateway topology, drives seeded
# open-loop (Poisson) and closed-loop runs over the mixed scenario blend,
# and writes BENCH_serve.json / BENCH_serve_gateway.json. A run in which any
# response breaks its scenario's status contract, or whose request counts
# disagree with the server's /v1/metrics, fails the target. It is not a
# performance gate; bench/ (BENCHMARK.json) is.
loadbench:
	$(GO) run ./cmd/ddlload -self -seed 1 -rps 150 -duration 3s \
		-closed-requests 300 -concurrency 8 -out BENCH_serve.json
	$(GO) run ./cmd/ddlload -self -gateway -gateway-replicas 2 -seed 1 \
		-rps 120 -duration 3s -closed-requests 300 -concurrency 8 \
		-mix "zoo=40,batch=10,custom=10,gateway=30,notfound=5,oversized=5" \
		-out BENCH_serve_gateway.json

# Backend leaderboard (DESIGN.md §14): every registered regress backend ×
# every zoo dataset under seeded 5-fold CV, written to
# BENCH_leaderboard.json. The artifact is deterministic (same seed ⇒
# byte-identical), and the run gates the floor: each learned backend added
# for the leaderboard (knn, gb-stumps) must beat the analytical roofline on
# at least one dataset, or the target fails. -quick keeps the campaign and
# GHN small enough for CI.
leaderboard:
	$(GO) run ./cmd/ddlbench -quick -leaderboard -leaderboard-out BENCH_leaderboard.json

# End-to-end smoke: the live-cluster example trains a predictor, runs
# collector + agents + HTTP controller in one process, and survives an
# injected collector restart (~5 s). Fails loudly if the serving path rots.
smoke:
	$(GO) run ./examples/livecluster

# Per-package coverage table with an 80% floor on the serving path and the
# predictor backends (internal/core, internal/cluster, internal/obs,
# internal/regress). Standalone it runs the suite itself; under `make
# verify` it gates on what the `test` step just wrote.
cover:
	./scripts/cover.sh 80 $(COVER_FROM)

# Short fuzz pass over every target: the handlers behind /v1/predict and
# /v1/predict/batch, the request decoder and graph.Spec's hand-written
# decoder each against encoding/json's, the collector's wire-frame codec,
# and the regressor-checkpoint decoder. CI runs this; long exploratory
# sessions use `go test -fuzz` directly.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzPredictRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzBatchRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzSpecUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/regress -run '^$$' -fuzz FuzzLoadRegressor -fuzztime $(FUZZTIME)

verify: COVER_FROM = $(TEST_OUT)
verify: fmt vet build ddlvet test benchcheck race smoke cover loadbench leaderboard
