# privstats build/verify targets. `make check` is the PR gate: formatting,
# vet, the full test suite, the examples, and race-detector runs on the
# concurrency-heavy runtime packages.

GO ?= go

.PHONY: all build test examples race flake bench-build bench-ab help-diff fmt vet check-386 check chaos chaos-restart fuzz-smoke cluster-demo colstore-demo cover

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Run every example end to end. Each one checks its result against a
# plaintext oracle and exits non-zero on a mismatch.
EXAMPLES = cluster medicalsurvey multiclient portfolio quickstart wireless
examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "examples/$$e"; $(GO) run ./examples/$$e > /dev/null; \
	done

# Race-detect the packages with real concurrency: the server runtime, the
# protocol layer it drives (Run plays both ends of a session on two
# goroutines over net.Pipe), the cluster fan-out, the fault-injection
# transport, the framed wire layer (its Conn carries cross-goroutine meter
# and trace state), the job gateway (fair-share scheduler + worker
# goroutines), the durability layer (journal append vs. compaction), the
# column store (streaming ingest vs. concurrent block reads), the metrics
# registry (scrapes vs. child creation and counter bumps), Paillier (one
# public key's N² reducer and pooled scratch under concurrent Add/AddPlain),
# the fold kernel (a chunk's exponent windows folded on several lanes), and
# the daemon lifecycle (the serve goroutine against the drain).
RACE_PKGS = ./internal/daemon/ ./internal/server/ ./internal/selectedsum/ ./internal/cluster/ ./internal/faultnet/ ./internal/wire/ ./internal/jobs/ ./internal/stock/ ./internal/durable/ ./internal/colstore/ ./internal/metrics/ ./internal/paillier/ ./internal/mathx/
race:
	$(GO) test -race $(RACE_PKGS)

# Flake gate (ROADMAP item 0): the whole suite twenty times with one and with
# two scheduler threads, then the race target's packages five times under the
# race detector. A test that only passes on a quiet host fails here, and is
# fixed on counted events (testutil.Eventually), never on a longer sleep or a
# retry.
FLAKE_PKGS = ./...
flake:
	GOMAXPROCS=1 $(GO) test -count=20 $(FLAKE_PKGS)
	GOMAXPROCS=2 $(GO) test -count=20 $(FLAKE_PKGS)
	$(GO) test -race -count=5 $(RACE_PKGS)

# benchmark/ is a nested module that `go build ./...` never compiles, yet it
# reads metric fields and accessors by name: vet it and compile its tests here
# so a rename fails the PR gate rather than the next benchmark run. Its smoke
# test is not run: it measures live loops against millisecond budgets and
# fails on a slow host whatever the code does (`cd benchmark && go test ./...`
# runs it).
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test -run '^$$' ./...

# Interleaved A/B ledger: PAIRS (default 10) alternating pairs of the
# benchmark on BASE and on HEAD, per-metric medians, quartiles, paired wins
# and verdicts, written to BENCH_<PR>.json. `make bench-ab BASE=<ref>
# [WORKLOADS="pooled-sharded small-sessions"]`; PAIRS, SEED, PR, OUT,
# CLAIM=<metric>@<workload> and TRACE=1 (a traced pass per side per pair, for
# the per-layer rows) pass through the environment (see scripts/bench_ab.sh).
# About 15 minutes per workload at the defaults, twice that with TRACE=1.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<ref> [WORKLOADS=...]"; exit 2; }
	bash scripts/bench_ab.sh $(BASE) $(WORKLOADS)

# Flag surface: every cmd/ binary's -h output at BASE and at HEAD, diffed with
# the binary path masked. `make help-diff BASE=<ref>`; a change that must keep
# the command lines as they are shows "identical" for each binary.
help-diff:
	@test -n "$(BASE)" || { echo "usage: make help-diff BASE=<ref>"; exit 2; }
	bash scripts/help_diff.sh $(BASE)

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The 32-bit build: big.Word is 32 bits there, so the word-wise code in mathx
# (FillBytes, the fold kernel) and everything encoding through it runs on
# other widths than on amd64. Vet the whole tree, test the arithmetic and the
# frame codec.
check-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/mathx/ ./internal/paillier/ ./internal/wire/

check: fmt vet build test examples race bench-build check-386
	@echo "check: all clean"

# Chaos suite: the loopback cluster under seeded faultnet plans (resets,
# corruption, stalled backends, mid-frame kills, dial refusals), under the
# race detector, twice — the fault plans are seeded, so both runs must
# inject and survive identically.
chaos:
	$(GO) test -race -run 'TestChaos' -count=2 ./internal/cluster/

# Restart-chaos suite: the real sumjobd/stockd/sumserver/sumproxy binaries
# SIGKILLed at seeded random points mid-run and restarted on the same state
# directories, under the race detector. Every job must end exact-vs-oracle
# or cleanly classified; the stock daemon must restore its last snapshot
# exactly; the resharding migration must never serve a wrong statistic.
CHAOS_RESTARTS ?= 100
chaos-restart:
	CHAOS_RESTARTS=$(CHAOS_RESTARTS) $(GO) test -race -timeout 45m -run 'TestRestartChaos' -count=1 ./internal/chaos/

# Fuzz smoke: a short live-fuzz burst per target (the seed corpus alone runs
# in `make test`). Go runs one fuzz target per invocation, hence the loop.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; \
	for t in FuzzReadFrame FuzzRecvReused FuzzDecodeErrorPayload FuzzDecodeHello FuzzDecodeIndexChunk; do \
		$(GO) test -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) ./internal/wire/; \
	done; \
	$(GO) test -fuzz='^FuzzParseShardMapSpec$$' -fuzztime=$(FUZZTIME) ./internal/cluster/; \
	$(GO) test -fuzz='^FuzzReadTable$$' -fuzztime=$(FUZZTIME) ./internal/database/; \
	for t in FuzzMultiExpAccEquivalence FuzzReducerEquivalence FuzzMontMulEquivalence FuzzReducerExp FuzzReducerExpEach; do \
		$(GO) test -run '^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) ./internal/mathx/; \
	done; \
	for t in FuzzParseCiphertext FuzzPrivateKeyUnmarshal FuzzReadBitStore FuzzEncryptCRTEquivalence; do \
		$(GO) test -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) ./internal/paillier/; \
	done; \
	$(GO) test -fuzz='^FuzzFoldEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/selectedsum/; \
	$(GO) test -fuzz='^FuzzDecodeJobSpec$$' -fuzztime=$(FUZZTIME) ./internal/jobs/; \
	$(GO) test -fuzz='^FuzzReplayJournal$$' -fuzztime=$(FUZZTIME) ./internal/durable/; \
	$(GO) test -fuzz='^FuzzReadBlock$$' -fuzztime=$(FUZZTIME) ./internal/colstore/; \
	$(GO) test -fuzz='^FuzzStockProtocol$$' -fuzztime=$(FUZZTIME) ./internal/stock/

# Coverage gate: profile ./internal/..., print per-package percentages, and
# fail if the total drops below the committed floor. The floor is the
# measured total minus a small slack — raise it as coverage grows, never
# lower it to make a PR pass.
COVER_FLOOR ?= 80.0
cover:
	@sh scripts/cover.sh $(COVER_FLOOR)

# Live sharded deployment on loopback: two sumserver shard backends behind
# the sumproxy aggregator, queried by sumclient, checked against a direct
# single-server run over the same table and selection.
cluster-demo:
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/sumserver ./cmd/sumproxy ./cmd/sumclient
	@sh scripts/cluster_demo.sh

# Out-of-core column store demo: generate ROWS rows (default 1e8, ~400 MB)
# straight to disk, re-read every row against the regenerated stream with
# peak RSS asserted far below the table size, then serve a shard directory
# with sumserver -table-dir and pin a real private query to the plaintext
# scan of the same selection.
ROWS ?= 1e8
colstore-demo:
	@mkdir -p bin
	$(GO) build -o bin/ ./cmd/cstool ./cmd/sumserver ./cmd/sumclient
	@ROWS=$(ROWS) sh scripts/colstore_demo.sh
