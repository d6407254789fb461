# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make bench` additionally records the
# machine-readable perf trajectory the repository tracks across PRs.

GO        ?= go
# BENCHTIME controls measurement cost: 1x smoke-runs every benchmark,
# larger values (e.g. 2s) give stable numbers.
BENCHTIME ?= 1x
# BENCH_OUT is where the JSON benchmark record lands; bump the suffix per
# PR to grow the trajectory instead of overwriting it.
BENCH_OUT ?= BENCH_pr10.json
# COVER_MIN gates `make cover`: the combined statement coverage of the
# public API package, the posting accelerator, the pipeline stage DAG,
# the write-ahead log, the replication client, the metrics registry, and
# the HTTP layer (ingest + admission + replication handlers).
COVER_MIN ?= 80
# LOAD_DURATION / LOAD_MAX_P99_MS parameterize `make loadtest` and
# `make loadtest-repl`; LOAD_MAX_LAG bounds how long the follower may
# take to drain the write stream once the repl load run stops.
LOAD_DURATION   ?= 5s
LOAD_MAX_P99_MS ?= 250
LOAD_MAX_LAG    ?= 10s

.PHONY: build test race vet bench cover loadtest loadtest-repl clean-checkout

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run, so inter-test state
# dependencies cannot hide; the seed prints on failure for replay.
test:
	$(GO) test -shuffle=on ./...

# cover enforces the coverage floor on the packages this repository's
# correctness story leans on hardest: the graphdim API (engines, cache,
# store, persistence, durability), the posting-list accelerator, the
# pipeline stage DAG (parsing, filter compilation, aggregation), the
# write-ahead log, the metrics registry, and the gserve HTTP layer
# (ingest streaming and admission control live there).
cover:
	$(GO) test -coverprofile=cover.out ./graphdim ./internal/posting ./internal/pipeline ./internal/segment ./internal/wal ./internal/repl ./internal/metrics ./cmd/gserve
	@$(GO) tool cover -func=cover.out | awk '$$1 == "total:" { \
		sub(/%/, "", $$3); \
		if ($$3 + 0 < $(COVER_MIN)) { printf "coverage %.1f%% is below the %d%% floor\n", $$3, $(COVER_MIN); exit 1 } \
		else printf "coverage %.1f%% (floor $(COVER_MIN)%%)\n", $$3 }'

# The concurrency-heavy packages: shard fan-out, compaction swaps, the
# worker budget, the write-ahead log, the HTTP layer on top of them, the
# scan kernel (lazy SoA block publication, pooled scratch arenas), and
# the mmap segment layer (shared decoded-graph caches, finalizer unmap).
race:
	$(GO) test -race -count=1 ./graphdim/... ./cmd/gserve/... ./internal/pipeline/... ./internal/pool/... ./internal/wal/... ./internal/repl/... ./internal/topk/... ./internal/vecspace/... ./internal/segment/...

vet:
	$(GO) vet ./...

# clean-checkout runs build, vet and test on exactly what is committed:
# HEAD is exported with git archive into a temporary directory and
# tested there, so a file that exists only in a working tree cannot make
# the tree pass locally while a fresh clone fails. It first refuses any
# git-ignored *.go file in the module (outside the dot- and
# underscore-directories go ./... skips): such a file builds locally but
# is never committed.
clean-checkout:
	@ignored=$$(git ls-files --others --ignored --exclude-standard -- '*.go' | grep -Ev '(^|/)[._]' || true); \
	if [ -n "$$ignored" ]; then \
		echo "git-ignored Go files (a commit would leave them out):"; echo "$$ignored"; exit 1; \
	fi
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive HEAD | tar -x -C "$$tmp" && cd "$$tmp" && \
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -count=1 ./...

# bench runs every benchmark and writes $(BENCH_OUT): one JSON record per
# op with iterations, ns/op, B/op and allocs/op. Two steps, not a pipe,
# so a panicking benchmark fails the target even after earlier benchmarks
# emitted parseable lines.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run '^$$' ./... > $(BENCH_OUT).txt
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < $(BENCH_OUT).txt
	@rm -f $(BENCH_OUT).txt

# loadtest runs the open-loop mixed workload (search/add/ingest) against
# an in-process gserve for $(LOAD_DURATION) and fails on any request
# error or an overall p99 above $(LOAD_MAX_P99_MS) milliseconds. Shed
# 429s are admission control working and do not fail the run.
loadtest:
	GLOAD_DURATION=$(LOAD_DURATION) GLOAD_MAX_P99_MS=$(LOAD_MAX_P99_MS) \
		$(GO) test -run '^TestLoadSmoke$$' -count=1 -v ./cmd/gserve

# loadtest-repl runs the same open-loop workload against an in-process
# primary/follower pair: writes land on the primary, a follower_search
# share reads from the replica. Fails on any request error, an overall
# p99 above $(LOAD_MAX_P99_MS), or a follower that cannot drain the
# write stream within $(LOAD_MAX_LAG) of the load stopping.
loadtest-repl:
	GLOAD_DURATION=$(LOAD_DURATION) GLOAD_MAX_P99_MS=$(LOAD_MAX_P99_MS) GLOAD_MAX_LAG=$(LOAD_MAX_LAG) \
		$(GO) test -run '^TestLoadReplSmoke$$' -count=1 -v ./cmd/gserve
