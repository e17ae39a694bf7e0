# Development targets for the quad KDV library and its commands.

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test vet fmt race verify fuzz bench bench-compare chaos smoke perf-test clean

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

race:
	$(GO) test -race ./...

# verify is the pre-merge gate: compile everything, lint, run the full test
# suite — which includes the metrics-drift golden-file gate and the
# Prometheus text-format parse check (internal/serve TestMetricsGolden /
# TestPrometheusExpositionParses) — then run the guarantee-conformance
# suite (oracle-differential, bound-dominance, and metamorphic checks) on a
# small seeded dataset. CI runs this plus the race and fuzz shards.
verify: build vet fmt test
	$(GO) run ./cmd/kdvcheck -dataset crime -n 1200 -seed 7 -res 32x24 \
		-json results/kdvcheck.json > /dev/null

# fuzz runs every native fuzz target for FUZZTIME each (Go allows one
# -fuzz target per invocation). Corpora seeds live under each package's
# testdata/fuzz/ and also run as plain tests in `make test`.
fuzz:
	$(GO) test ./internal/kernel -run='^$$' -fuzz='^FuzzExpEnvelopes$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/kernel -run='^$$' -fuzz='^FuzzDistKernelEnvelopes$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/geom -run='^$$' -fuzz='^FuzzRectDistBounds$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/geom -run='^$$' -fuzz='^FuzzRectRectDistBounds$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/kernel -run='^$$' -fuzz='^FuzzExpFastLanes$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/kdtree -run='^$$' -fuzz='^FuzzBuildInvariants$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/kdtree -run='^$$' -fuzz='^FuzzFlatTreeInvariants$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bounds -run='^$$' -fuzz='^FuzzEvaluatorBounds$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bounds -run='^$$' -fuzz='^FuzzRectBounds$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run='^$$' -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tiles -run='^$$' -fuzz='^FuzzTileRecord$$' -fuzztime=$(FUZZTIME)

# bench regenerates BENCH_PR10.json: the render benchmark (εKDV + τKDV,
# crime analogue at 30k points, 256² and 512², tile-shared vs per-pixel),
# the telemetry-, tracing-, and shadow-audit-overhead deltas against the
# uninstrumented paths, and the tile-serving tiers (cold engine build vs
# warm-disk vs warm-memory on 512² XYZ tiles through a real on-disk store).
bench:
	$(GO) run ./cmd/kdvbench -json BENCH_PR10.json -jsonn 30000

# bench-compare is the regression gate: diff the newest checked-in baseline
# against its predecessor. Deterministic work counters (nodes/pixel) get a
# 5% budget, wall-clock cells 25%, instrumentation overheads 2% absolute —
# including the PR10 shadow-audit producer hook at its production 1%
# sampling fraction; exits non-zero on any regression. -mintilespeedup
# requires the new report's warm-disk tile serving to beat its own cold
# build by ≥10× — the PR9 acceptance claim, re-checked on the new report.
bench-compare:
	$(GO) run ./cmd/kdvbench -compare BENCH_PR9.json -mintilespeedup 10 BENCH_PR10.json

# chaos runs the cluster fault-injection suite under the race detector:
# seeded fault transport + fake clock drive breaker trips/recovery, hedges
# against hung workers, partial-merge degradation, and bit-identity of
# k-of-n merges against the single-process oracle.
chaos:
	$(GO) test -race -count=1 ./internal/cluster/...

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
