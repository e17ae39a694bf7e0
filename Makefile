# Development targets for the quad KDV library and its commands.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test vet fmt race verify fuzz bench chaos smoke perf-test clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs gofmt — the same gate CI applies.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs every test under the race detector, then repeats two identity
# tests ten times each, since a data race may show in only some runs: the
# level-order kd-tree build's, whose goroutines reorder disjoint ranges of
# one buffer and fill disjoint nodes of its arrays, and the render
# scheduler's, whose workers share a tile's frontier and write disjoint
# pixels of one raster.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run BuildWorkers ./internal/kdtree
	$(GO) test -race -count=10 -run WorkersDeterminism .

# verify is the pre-merge gate: compile everything, lint, run the full test
# suite — which includes the behaviour ledger (TestLedger: raster digests
# and work counters against testdata/ledger.golden, also re-run under
# GODEBUG=cpu.fma=off), the metrics-drift golden-file gate and the
# Prometheus text-format parse check (internal/serve TestMetricsGolden /
# TestPrometheusExpositionParses) — then run the guarantee-conformance
# suite (oracle-differential, bound-dominance, and metamorphic checks) on a
# small seeded dataset. CI runs this plus the race and fuzz shards.
verify: build vet fmt test
	$(GO) run ./cmd/kdvcheck -dataset crime -n 1200 -seed 7 -res 32x24 \
		-json results/kdvcheck.json > /dev/null

# fuzz runs every native fuzz target for FUZZTIME each (Go allows one
# -fuzz target per invocation), as package:target pairs, where package is
# a directory under internal/ or . for the root package. It runs them all
# even after one fails, then fails if any did, naming them. Corpora seeds
# live under each package's testdata/fuzz/ and also run as plain tests in
# `make test`.
FUZZ_TARGETS = .:FuzzRenderRequest kernel:FuzzExpEnvelopes kernel:FuzzDistKernelEnvelopes \
	dataset:FuzzReadCSV geom:FuzzRectDistBounds geom:FuzzRectRectDistBounds \
	kernel:FuzzExpFastLanes kdtree:FuzzBuildInvariants kdtree:FuzzFlatTreeInvariants \
	bounds:FuzzEvaluatorBounds bounds:FuzzRectBounds trace:FuzzParseTraceparent \
	tiles:FuzzTileRecord serve:FuzzRenderParams

fuzz:
	@failed=""; \
	for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t#*:}; dir=./internal/$$pkg; \
		if [ "$$pkg" = . ]; then dir=.; fi; \
		echo "$(GO) test $$dir -run='^$$' -fuzz='^$$fn\$$' -fuzztime=$(FUZZTIME)"; \
		$(GO) test $$dir -run='^$$' -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) || failed="$$failed $$pkg:$$fn"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz targets failed:$$failed"; exit 1; fi

# bench writes bench.json (untracked): the render benchmark (εKDV + τKDV,
# crime analogue at 30k points, 256² and 512², tile-shared vs per-pixel),
# the tracing and shadow-audit overheads over the bare render (median of
# ten alternating pairs, with the spread between their quartiles), and the
# tile-serving tiers (cold engine build vs warm-disk vs warm-memory on 512²
# XYZ tiles through a real on-disk store). It exits non-zero when warm-disk
# tiles are under 10x faster than a cold build, or when an overhead is
# above 2% with a spread inside 2% (a wider spread reads "unresolved"). The
# 256² cells' work counters are pinned by the ledger (bench/… cells in
# testdata/ledger.golden); the checked-in BENCH_PRn.json files are history.
bench:
	$(GO) run ./cmd/kdvbench -json bench.json -jsonn 30000

# chaos runs the cluster fault-injection suite under the race detector:
# seeded fault transport + fake clock drive breaker trips/recovery, hedges
# against hung workers, partial-merge degradation, and bit-identity of
# k-of-n merges against the single-process oracle. The workers are real
# serve servers, so the serving layer's cluster and shard-route tests run
# here too.
chaos:
	$(GO) test -race -count=1 ./internal/cluster/...
	$(GO) test -race -count=1 -run 'Cluster|Shard' ./internal/serve/

# smoke boots kdvserve, waits for /readyz, renders once, and asserts the
# /metrics scrape saw the work — the end-to-end check of the telemetry path.
# Then boots a coordinator + two shard workers, kills one, and asserts the
# render degrades to a 200 partial raster with X-KDV-Complete: false.
smoke:
	./scripts/smoke.sh

# perf-test vets and tests the end-to-end serving benchmark (kdvperf/). It
# is its own Go module, so ./... at the root never reaches it: its planted-
# fault checker tests (flipped byte, wrong τ, mismatched disk tile), the
# exact-count repeat test, and the spec test that keeps BENCHMARK.json in
# step with the code run only here.
perf-test:
	cd kdvperf && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
