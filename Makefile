# Common development targets. Everything is pure-stdlib Go; no external
# tools are required beyond the Go toolchain.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all check build test race bench bench-lookup bench-figs bench-net bench-smoke bench-test bench-gate bench-gate-allocs bench-diff bench-scaling fuzz-smoke soak-migrate soak-scale soak-scale-short lint vet fmt figures examples clean

all: check

# The default gate: compile, unit tests, static analysis, the race
# detector over the concurrent code (including the crash-restart chaos
# soak in internal/cluster and the RCU stress test in the root
# package), a timeboxed run of every fuzz target, and a smoke run of
# every benchmark so a broken benchmark can't land, and the nested
# bench module's own vet and tests.
check: build test lint race fuzz-smoke bench-smoke bench-test

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
	$(GO) test -run='^$$' -bench='Balancer|Hash|Lookup|SetWeights' -benchmem . ./internal/... > BENCH_lookup.txt
	$(GO) run ./cmd/benchjson -o BENCH_lookup.json < BENCH_lookup.txt
	rm -f BENCH_lookup.txt

bench-figs:
	$(GO) test -run='^$$' -bench='Fig' -benchtime=1x -benchmem . > BENCH_figs.txt
	$(GO) run ./cmd/benchjson -o BENCH_figs.json < BENCH_figs.txt
	rm -f BENCH_figs.txt

# Record the wire-path baselines (frame encode/decode, end-to-end TCP
# heartbeat, memnet broadcast fan-out) into BENCH_net.json. Every entry
# is 0 allocs/op by design; the alloc gate below holds them there.
bench-net:
	$(GO) test -run='^$$' -bench='Frame|Heartbeat|Broadcast' -benchmem ./internal/cluster > BENCH_net.txt
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

# A fresh run of the gated micro-benchmarks, shared by the gate and
# diff targets below. Real file targets (not .PHONY) so one make
# invocation — or consecutive CI steps in the same job — runs the
# benchmarks once and reuses the recording.
BENCH_current.txt:
	$(GO) test -run='^$$' -bench='Balancer|Hash|Lookup|SetWeights' -benchmem . ./internal/... > $@

BENCH_current.json: BENCH_current.txt
	$(GO) run ./cmd/benchjson -o $@ < BENCH_current.txt

# A fresh single-iteration recording of the paper-figure benchmarks,
# shared by the alloc gate and the figure diff. The figure suite runs
# its cells sequentially (see newQuickSuite), so its allocs/op are
# exact.
BENCH_figs_current.txt:
	$(GO) test -run='^$$' -bench='Fig' -benchtime=1x -benchmem . > $@

BENCH_figs_current.json: BENCH_figs_current.txt
	$(GO) run ./cmd/benchjson -o $@ < BENCH_figs_current.txt

# A fresh run of the wire-path benchmarks for the alloc gate.
BENCH_net_current.txt:
	$(GO) test -run='^$$' -bench='Frame|Heartbeat|Broadcast' -benchmem ./internal/cluster > $@

BENCH_net_current.json: BENCH_net_current.txt
	$(GO) run ./cmd/benchjson -o $@ < BENCH_net_current.txt

# Compare a fresh micro-benchmark run against the committed baseline
# and fail on >30% ns/op regressions. Meaningful on hardware comparable
# to the machine that recorded BENCH_lookup.json.
bench-gate: BENCH_current.txt
	$(GO) run ./cmd/benchjson -gate BENCH_lookup.json < BENCH_current.txt > /dev/null

# Fail on ANY allocs/op increase, in both the micro-benchmarks and the
# whole-figure suite. Allocation counts are exact and
# machine-independent — the runtime counts them, the clock does not
# jitter them — so unlike bench-gate this is a hard guarantee on any
# hardware, including a regression from a 0-alloc baseline. Gating the
# figure suite pins the end-to-end simulator: an accidental
# closure/boxing reintroduction anywhere on the hot path shows up as
# hundreds of thousands of allocs in these totals.
bench-gate-allocs: BENCH_current.txt BENCH_figs_current.txt BENCH_net_current.txt
	$(GO) run ./cmd/benchjson -gate BENCH_lookup.json -metric allocs/op -tolerance 0 < BENCH_current.txt > /dev/null
	$(GO) run ./cmd/benchjson -gate BENCH_figs.json -metric allocs/op -tolerance 0 < BENCH_figs_current.txt > /dev/null
	$(GO) run ./cmd/benchjson -gate BENCH_net.json -metric allocs/op -tolerance 0 < BENCH_net_current.txt > /dev/null

# Full noise-aware diff of the fresh runs against the committed
# baselines: every shared metric, per-metric tolerances and floors,
# zero-baseline and added/removed handling, rendered as
# benchdiff-report.md / benchdiff-figs-report.md (CI attaches both to
# the job summary).
bench-diff: BENCH_current.json BENCH_figs_current.json
	$(GO) run ./cmd/benchdiff -o benchdiff-report.md BENCH_lookup.json BENCH_current.json
	$(GO) run ./cmd/benchdiff -o benchdiff-figs-report.md BENCH_figs.json BENCH_figs_current.json

# Record the parallel figure runner's scaling curve (workers 1,2,4,...
# up to GOMAXPROCS) into BENCH_scaling.json.
bench-scaling:
	$(GO) run ./cmd/paperfigs -scaling -scaling-out BENCH_scaling.json

# Timeboxed coverage-guided fuzzing of every fuzz target (FUZZTIME per
# target; go only allows one -fuzz pattern per package invocation).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/anu
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzJournalRecover$$' -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzMigrationRecord$$' -fuzztime=$(FUZZTIME) ./internal/migrate
	$(GO) test -run='^$$' -fuzz='^FuzzWeightedSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/placement

# The live-migration chaos soak under the race detector: five nodes on
# a lossy network with chaos journals, faults injected in every phase
# of the migration state machine (leader killed in Proposed, follower
# crash-restarted with a torn journal tail in DualTag, flipped witness
# crash-restarted in Committed, partition mid-rollback), with lookup
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
	rm -f BENCH_lookup.txt BENCH_figs.txt BENCH_net.txt BENCH_gate.txt
	rm -f BENCH_current.txt BENCH_current.json benchdiff-report.md
	rm -f BENCH_figs_current.txt BENCH_figs_current.json benchdiff-figs-report.md
	rm -f BENCH_net_current.txt BENCH_net_current.json
