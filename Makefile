# Common development targets. Everything is pure-stdlib Go; no external
# tools are required beyond the Go toolchain.

GO ?= go
FUZZTIME ?= 30s

# Benchmarks are recorded and gated at GOMAXPROCS=1. Go appends a -N
# suffix to benchmark names when GOMAXPROCS is N > 1, and the gates
# match benchmarks by name, so a baseline and a fresh run taken on
# machines with different core counts would otherwise share no names
# and compare nothing.
BENCHCPU = -cpu=1

# Each benchmark selection is named once and shared by its record
# target (bench-lookup/bench-figs/bench-net) and its gate recording
# (BENCH_*current.txt), so a benchmark is always recorded and gated
# together.
LOOKUP_BENCH = -bench='Balancer|Hash|Lookup|SetWeights|StrategyDecode|StrategyTune' -benchmem . ./internal/...
FIGS_BENCH = -bench='Fig' -benchtime=1x -benchmem .
NET_BENCH = -bench='Frame|Heartbeat|Broadcast|MapState' -benchmem ./internal/cluster

.PHONY: all check build test race bench bench-lookup bench-figs bench-net bench-smoke bench-test bench-gate bench-gate-allocs fuzz-smoke soak-migrate soak-scale soak-scale-short lint vet fmt figures examples clean

all: check

# The default gate: compile, unit tests, static analysis, the race
# detector over the concurrent code (including the crash-restart chaos
# soak in internal/cluster and the RCU stress test in the root
# package), a timeboxed run of every fuzz target, and a smoke run of
# every benchmark so a broken benchmark can't land, the nested bench
# module's own vet and tests, and a run of every example program.
check: build test lint race fuzz-smoke bench-smoke bench-test examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/...

# Record benchmark baselines: the lookup/hash micro-benchmarks into
# BENCH_lookup.json and the paper-figure benchmarks into
# BENCH_figs.json. Intermediate text files (not pipes) so a go test
# failure stops the recipe under plain POSIX sh.
bench: bench-lookup bench-figs bench-net

bench-lookup:
	$(GO) test $(BENCHCPU) -run='^$$' $(LOOKUP_BENCH) > BENCH_lookup.txt
	$(GO) run ./cmd/benchjson -o BENCH_lookup.json < BENCH_lookup.txt
	rm -f BENCH_lookup.txt

bench-figs:
	$(GO) test $(BENCHCPU) -run='^$$' $(FIGS_BENCH) > BENCH_figs.txt
	$(GO) run ./cmd/benchjson -o BENCH_figs.json < BENCH_figs.txt
	rm -f BENCH_figs.txt

# Record the wire-path baselines (frame encode/decode, end-to-end TCP
# heartbeat, memnet broadcast fan-out inline and through the delayed
# queue, the MapState poll) into BENCH_net.json. Every entry is
# 0 allocs/op by design; the alloc gate below holds them there.
bench-net:
	$(GO) test $(BENCHCPU) -run='^$$' $(NET_BENCH) > BENCH_net.txt
	$(GO) run ./cmd/benchjson -o BENCH_net.json < BENCH_net.txt
	rm -f BENCH_net.txt

# Cheap benchmark liveness check for the default gate: 10 iterations of
# everything, output discarded — catches benchmarks that panic or fail,
# not performance changes.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=10x ./... > /dev/null

# The repository benchmark (bench/, run by bench/run.sh) is a nested
# module with its own go.mod, so the root `go test ./...` never reaches
# it: vet and test it on its own.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# Fresh recordings of the gated benchmarks, one per baseline file.
# Real file targets (not .PHONY) so one make invocation — or
# consecutive CI steps in the same job — runs each suite once and
# reuses the recording.
BENCH_current.txt:
	$(GO) test $(BENCHCPU) -run='^$$' $(LOOKUP_BENCH) > $@

BENCH_current.json: BENCH_current.txt
	$(GO) run ./cmd/benchjson -o $@ < BENCH_current.txt

# The figure suite runs its cells sequentially (see newQuickSuite), so
# its allocs/op are exact.
BENCH_figs_current.txt:
	$(GO) test $(BENCHCPU) -run='^$$' $(FIGS_BENCH) > $@

BENCH_figs_current.json: BENCH_figs_current.txt
	$(GO) run ./cmd/benchjson -o $@ < BENCH_figs_current.txt

BENCH_net_current.txt:
	$(GO) test $(BENCHCPU) -run='^$$' $(NET_BENCH) > $@

BENCH_net_current.json: BENCH_net_current.txt
	$(GO) run ./cmd/benchjson -o $@ < BENCH_net_current.txt

# Both gates run cmd/benchdiff, which diffs every shared metric into a
# markdown report and fails on a regression of the one -metric it
# gates, or when no benchmark in both files carries that metric.
#
# bench-gate fails on >30% ns/op regressions against the committed
# micro-benchmark baseline. Meaningful on hardware comparable to the
# machine that recorded BENCH_lookup.json. Its report is
# benchdiff-report.md.
bench-gate: BENCH_current.json
	$(GO) run ./cmd/benchdiff -metric ns/op -o benchdiff-report.md BENCH_lookup.json BENCH_current.json

# Fail on ANY allocs/op increase, in the micro-benchmarks, the
# whole-figure suite and the wire path. Allocation counts are exact and
# machine-independent — the runtime counts them, the clock does not
# jitter them — so unlike bench-gate this is a hard guarantee on any
# hardware, including a regression from a 0-alloc baseline. Gating the
# figure suite pins the end-to-end simulator: an accidental
# closure/boxing reintroduction anywhere on the hot path shows up as
# hundreds of thousands of allocs in these totals. The figure run's
# report is benchdiff-figs-report.md.
bench-gate-allocs: BENCH_current.json BENCH_figs_current.json BENCH_net_current.json
	$(GO) run ./cmd/benchdiff -metric allocs/op -o /dev/null BENCH_lookup.json BENCH_current.json
	$(GO) run ./cmd/benchdiff -metric allocs/op -o benchdiff-figs-report.md BENCH_figs.json BENCH_figs_current.json
	$(GO) run ./cmd/benchdiff -metric allocs/op -o /dev/null BENCH_net.json BENCH_net_current.json

# Timeboxed coverage-guided fuzzing of every fuzz target (FUZZTIME per
# target). The targets are found, not listed: every Fuzz* function that
# `go test -list` reports in a package under ./... runs, one per
# invocation, since go allows only one -fuzz pattern per package run.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list='^Fuzz' $$pkg) || exit 1; \
		for target in $$(echo "$$targets" | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# The live-migration chaos soak under the race detector: five nodes on
# a lossy network with chaos journals, a fault at each step of a
# migration (delegate killed right after Migrate, follower
# crash-restarted with a torn journal tail inside the window, flipped
# witness crash-restarted after it, partition mid-cutover), with lookup
# hammers asserting the zero-downtime contract throughout.
soak-migrate:
	$(GO) test -race -run='^TestMigrationChaosSoak$$' -count=1 -v ./internal/cluster

# The scale soak: every placement strategy baked on 50/100/200-node
# clusters over the pooled memnet fabric with light chaos, a coherence
# monitor holding one-placement-per-round throughout. The short variant
# (CI) keeps the 50-node cells and adds the race detector.
soak-scale:
	$(GO) test -run='^TestSoakScale$$' -count=1 -timeout=20m -v ./internal/cluster

soak-scale-short:
	$(GO) test -race -short -run='^TestSoakScale$$' -count=1 -timeout=15m -v ./internal/cluster

# Static analysis: vet always; staticcheck when installed (the repo
# stays pure-stdlib, so the tool is optional and skipped gracefully).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Regenerate every paper figure at full scale (~1 minute).
figures:
	$(GO) run ./cmd/paperfigs

# Run every example program.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/failover
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/vptradeoff
	$(GO) run ./examples/closedloop
	$(GO) run ./examples/tcpcluster

clean:
	$(GO) clean -testcache
	rm -f BENCH_lookup.txt BENCH_figs.txt BENCH_net.txt
	rm -f BENCH_current.txt BENCH_current.json benchdiff-report.md
	rm -f BENCH_figs_current.txt BENCH_figs_current.json benchdiff-figs-report.md
	rm -f BENCH_net_current.txt BENCH_net_current.json
