GO ?= go

# The single source of truth for the staticcheck pin: CI's lint job
# runs `make lint`, so local and CI use the identical version. Override
# STATICCHECK itself to substitute a binary (or `true` to skip in an
# offline environment — the skip is then an explicit, visible choice).
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# The repository's own vet tool (cmd/silint): borrowcheck, epochpin,
# ctxloop and nilness (lite), the checks plain go vet cannot make.
# docs/LINTING.md is the catalog.
SILINT := bin/silint

.PHONY: build test bench bench-smoke bench-json bench-baseline fuzz-short lint silint serve serve-append-smoke serve-cluster-smoke docs-check examples ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The repo benchmark (BENCHMARK.json) is its own module under bench/,
# so `go build ./... && go test ./...` at the root never compiles
# bench/layers.go — the one file importing repro/... — against the API
# it drives. Vet and smoke-test it here so an engine change that breaks
# the benchmark fails CI instead of the next benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Machine-readable search benchmarks: run the serving-path benches
# (plain, batched, count-only and limited search — ns/op, allocs,
# posting-fetch and join-row counts) and convert the output to
# BENCH_search.json (the full per-run artifact, not committed). The
# committed BENCH_baseline.json holds only the guarded metrics of the
# limited-search, sharded-query, batch and planner-skew benchmarks, of
# RepeatedCount (the 48 WH queries counted on a 2000-tree index with
# its decoded-list memo warm: its fetches and join rows must read as a
# cold pass's, its allocations stay those of the copy path), of
# internal/core's PlanMiss (a plan-map miss: costed plans of the WH and
# FB-70 queries on 1 and 4 shards, with counts/op, the stored-count
# reads one plan issues), of the join layer's own (internal/join: JoinRun, JoinStream, and
# StreamAlign at seek gaps of 1, 8, 64 and 512 entries) and of
# internal/postings' RootDecode and RootBlock (the per-entry and the
# batch decoder, the latter also over a real frequent key's list) and
# RootSkip (the skip-table seek over dense and sparse gaps) and of
# internal/subtree's ExtractMSS3/MSS5 (the build's key kernel, one
# reused extractor) and of internal/btree's Get (short and 20-page
# values on pread and mmap) — the fetch and join-row work counters plus
# allocs/op and B/op (the decoders', the extractor's and a mapped Get's
# are zero, and a zero baseline fails on any increase). benchjson diffs
# the new run against it and
# fails on a >25% increase — or on a baseline matching nothing — so
# both the early-termination counters and the zero-copy allocation
# profile are gates, not just artifacts.
# bench-json never touches the committed baseline:
# rebasing it is the deliberate `make bench-baseline`, whose diff is
# then reviewed and committed. That keeps within-tolerance drift from
# compounding silently — every baseline move is a visible commit.
# Each guarded benchmark runs 100 timed iterations after testing's
# one-iteration warm-up run, so a stray runtime allocation in the timed
# run divides by 100. At -benchtime=1x such strays failed about one run
# in five: a runtime timer-heap growth (16 B, 1 alloc) and, more often,
# the runtime starting an OS thread (5248 B in 5 allocs) when the
# stop-the-world of testing's own memory-statistics read restarts with
# an idle P and no idle thread. The first rounds to 0 B/op over 100
# iterations, the second does not (52 B/op), and it hit a zero-alloc
# item in 5 of 20 runs. So the packages whose guarded items read 0 or a
# few bytes per op (decoders, extractor, B+Tree Get) run at -cpu=1:
# with one P there is no idle P to start a thread for, and 0 of 12
# probe runs saw a stray. The search and join items keep the default
# GOMAXPROCS (their fan-out runs in parallel); their smallest guarded
# B/op is about 1.9 KB, which a 52 B stray moves by under 3 %. Every
# guarded work counter (fetches/op, joinrows/op, counts/op) is the work of one
# operation — measured before the timed loop or taken from its last
# iteration — so it reads the same at any iteration count.
BENCH_TOLERANCE ?= 0.25
BENCH_FLAGS = -run='^$$' -benchmem -benchtime=100x
BENCH_CMD = $(GO) test $(BENCH_FLAGS) \
	-bench='SearchBatch|CountOnly|LimitedSearch|RepeatedCount|ShardedQuery|PlannerSkew|PlanMiss|JoinRun|JoinStream|StreamAlign' \
	. ./internal/core ./internal/join && \
	$(GO) test $(BENCH_FLAGS) -cpu=1 -bench='RootDecode|RootBlock|RootSkip|Extract|Get' \
	./internal/postings ./internal/subtree ./internal/btree
bench-json:
	($(BENCH_CMD)) > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_search.json -baseline BENCH_baseline.json \
		-tolerance $(BENCH_TOLERANCE) < bench.out
	@rm -f bench.out
	@echo wrote BENCH_search.json

# Rebase the committed regression baseline (no gate: this IS the act
# of accepting the current counters). Review the diff, then commit.
bench-baseline:
	($(BENCH_CMD)) > bench.out
	$(GO) run ./cmd/benchjson -o BENCH_search.json -write-baseline BENCH_baseline.json < bench.out
	@rm -f bench.out
	@echo rewrote BENCH_baseline.json — review its diff and commit it

# Short fuzz pass over the byte-level decoders that face raw (possibly
# hostile) file contents: posting-list iterators (FuzzRootBlock holds
# the batch root-split decoder to the per-entry one, record for record;
# FuzzRootSkip holds the skip-table seek to the records a Next loop
# decodes, and on hostile bytes to no panic, no over-read and an error
# wherever a walked block disagrees with its table entry),
# the pager's header/page reader and the B+Tree's page decoding
# (FuzzBTreeGet: lookups and a full scan of mutated built files, which
# must error rather than panic or loop), plus the build's subtree
# extractor (FuzzExtract: bracketed trees, keys and slot mappings held
# to the top-down reference extractor) and the query-parameter parser
# sisrv and sirouter share (FuzzParseParams: accepted windows never
# overflow and /batch bounds agree) and the router's relay of node
# /stream bodies (FuzzRoutedStream: whatever bytes a node sends, the
# routed answer is a JSON error or NDJSON with one done:true line after
# in-range, strictly increasing match lines, at most limit of them),
# and the index manifest (FuzzManifest: arbitrary meta.json bytes
# through OpenLive and Reload at a root with one valid segment must
# error or serve only segments under the root), and the join stream
# against the materializing join (FuzzStreamMatchesRun: fuzzer-chosen
# forests, relation shapes, cursor kinds, batch cuts and limits; the
# same matches as join.Run, and the same work counters whatever the
# cursor).
# The committed testdata/fuzz corpora always replay
# in plain `go test`; this target additionally explores for a few
# seconds per target, which is enough to catch gross regressions (a
# panic or over-read lands within seconds on these tiny inputs).
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -fuzz=FuzzPostingDecode -fuzztime=$(FUZZTIME) ./internal/postings/
	$(GO) test -fuzz=FuzzRootBlock -fuzztime=$(FUZZTIME) ./internal/postings/
	$(GO) test -fuzz=FuzzRootSkip -fuzztime=$(FUZZTIME) ./internal/postings/
	$(GO) test -fuzz=FuzzPageHeader -fuzztime=$(FUZZTIME) ./internal/pager/
	$(GO) test -fuzz=FuzzBTreeGet -fuzztime=$(FUZZTIME) ./internal/btree/
	$(GO) test -fuzz=FuzzExtract -fuzztime=$(FUZZTIME) ./internal/subtree/
	$(GO) test -fuzz=FuzzParseParams -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzRoutedStream -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzStreamMatchesRun -fuzztime=$(FUZZTIME) ./internal/join/

# Build the repository's vet tool.
silint:
	$(GO) build -o $(SILINT) ./cmd/silint

# Lint, fail-closed and identical to CI's lint job: gofmt, the standard
# vet passes, the silint analyzer suite (docs/LINTING.md), and the
# pinned staticcheck.
lint: silint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -vettool=$(SILINT) ./...
	$(STATICCHECK) ./...

# Start a demo query server over a freshly generated corpus.
serve:
	$(GO) run ./cmd/sisrv -gen 10000 -seed 42 -shards 4 -addr :8080

# Live-update smoke (also run by the CI serve job): build → serve →
# POST /append → the next query sees the new tree, then sibuild
# -append + POST /reload against the same never-restarted server.
serve-append-smoke:
	sh scripts/serve-append-smoke.sh

# Distributed-serving smoke (also run by the CI serve job): leader +
# follower sisrv with pull replication, sirouter over the pair, a
# replica killed mid-stream (client stream completes via failover),
# admission-control saturation shedding 429s, SIGTERM drain.
serve-cluster-smoke:
	sh scripts/serve-cluster-smoke.sh

# Documentation checks: markdown link integrity, every markdown file a
# Go comment cites existing, doc-comment coverage of every exported
# identifier, and ARCHITECTURE.md's invariants each citing a test that
# exists (docs_check_test.go), plus vet.
docs-check:
	$(GO) vet ./...
	$(GO) test -run 'TestDocLinks|TestGoCommentsCiteExistingDocs|TestExportedDocs|TestInvariantsNameTests' .

# Compile every example program so they cannot rot (building multiple
# main packages at once type-checks and discards the binaries).
examples:
	$(GO) build ./examples/...

ci: lint build test bench bench-smoke fuzz-short docs-check examples
