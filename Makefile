GO ?= go
GOLANGCI ?= golangci-lint
BENCH_OUT ?= BENCH_read_path.json
COMIGRATE_OUT ?= BENCH_comigrate.json
MILLION_OUT ?= BENCH_million.json
MILLION_AGENTS ?= 1048576
DISCOVER_OUT ?= BENCH_discover.json
# Fuzz budget per target for `make fuzz`.
FUZZTIME ?= 30s

.PHONY: all build test short race vet lint fmt-check tidy-check benchmark-check fuzz bench bench-hot benchdiff chaos ci clean

all: build

build:
	$(GO) build ./...

# Full suite: unit, integration, property, fuzz seeds, experiment sweeps.
# vet rides along so the default gate catches what the compiler tolerates.
test: vet
	$(GO) test ./...

# Skip the experiment sweeps for a fast signal.
short:
	$(GO) test -short ./...

# Everything under the race detector; -short keeps the fault-injection and
# chaos suites (and the experiment sweeps) out of the hot CI path.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# golangci-lint when available (CI installs it); plain vet otherwise, so the
# target never blocks a machine that only has the Go toolchain.
lint:
	@if command -v $(GOLANGCI) >/dev/null 2>&1; then \
		$(GOLANGCI) run ./...; \
	else \
		echo "golangci-lint not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Formatting drift fails fast: gofmt must be a no-op over the whole tree.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Module drift: go.mod/go.sum must already be tidy.
tidy-check:
	$(GO) mod tidy -diff

# benchmark/ is a module of its own (BENCHMARK.json's program), so ./... from
# the root never compiles it: vet it and run its smoke test here, or an
# internal/ API change it links against breaks it unnoticed.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Short fuzzing sweep over every codec and table fuzz target; CI's fuzz
# workflow runs the same list on a schedule. Committed corpora live in each
# package's testdata/fuzz.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzMsgHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hashtree -run '^$$' -fuzz FuzzDeserialize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hashtree -run '^$$' -fuzz FuzzDecodeJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/loctable -run '^$$' -fuzz FuzzDeserialize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/loctable -run '^$$' -fuzz FuzzDenseOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzHotMsgDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCheckpointReqDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capindex -run '^$$' -fuzz FuzzApply -fuzztime $(FUZZTIME)

# Read-path, co-migration and million-agent benchmarks: fixed iteration
# counts for run-to-run comparability, measurements written to $(BENCH_OUT),
# $(COMIGRATE_OUT) and $(MILLION_OUT) for benchdiff.
bench:
	BENCH_OUT=$(abspath $(BENCH_OUT)) $(GO) test ./internal/bench -bench ReadPath -benchtime 4000x -run '^$$'
	COMIGRATE_OUT=$(abspath $(COMIGRATE_OUT)) $(GO) test ./internal/bench -bench CoMigrate -benchtime 200x -run '^$$'
	MILLION_OUT=$(abspath $(MILLION_OUT)) MILLION_AGENTS=$(MILLION_AGENTS) \
		$(GO) test ./internal/bench -bench Million -benchtime 1x -run '^$$' -timeout 20m
	DISCOVER_OUT=$(abspath $(DISCOVER_OUT)) $(GO) test ./internal/bench -bench Discover -benchtime 400x -run '^$$'

# The remote-call hot path, layer by layer, without benchmark/'s 2^20-agent
# set-up: echo round trips between two TCP links (one caller; eight callers on
# one connection, reporting socket writes per call), a remote Client.Locate
# over loopback TCP, the local whois every operation starts with, and what the
# IAgent adds once the frame is in (HandleConcurrent on a 2^18-entry leaf), and
# a full checkpoint push of a 2^17-entry leaf to its buddy.
# Their allocation budgets are ordinary tests (Test*AllocBudget,
# TestIAgentServeLocateKeyAllocs), so `make short` — and with it `make ci` —
# gates them; this target prints the numbers.
bench-hot:
	$(GO) test ./internal/transport -run '^$$' -bench 'TCPEcho' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'LocateRemoteTCP|WhoisLocal|IAgentServeLocate|CheckpointFullPush' -benchmem

# Compare fresh benchmark runs against the committed baselines; non-zero
# exit on regressions past the p99, chase-hop, retry, update-RPC, alloc
# budget, or throughput gates.
benchdiff:
	BENCH_OUT=/tmp/BENCH_current.json $(GO) test ./internal/bench -bench ReadPath -benchtime 4000x -run '^$$'
	COMIGRATE_OUT=/tmp/BENCH_comigrate_current.json $(GO) test ./internal/bench -bench CoMigrate -benchtime 200x -run '^$$'
	MILLION_OUT=/tmp/BENCH_million_current.json MILLION_AGENTS=$(MILLION_AGENTS) \
		$(GO) test ./internal/bench -bench Million -benchtime 1x -run '^$$' -timeout 20m
	DISCOVER_OUT=/tmp/BENCH_discover_current.json $(GO) test ./internal/bench -bench Discover -benchtime 400x -run '^$$'
	$(GO) run ./cmd/benchdiff -baseline BENCH_read_path.json -current /tmp/BENCH_current.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_comigrate.json -current /tmp/BENCH_comigrate_current.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_million.json -current /tmp/BENCH_million_current.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_discover.json -current /tmp/BENCH_discover_current.json

# Crash-tolerance soak: the failover, chaos, fault-injection and restart-
# recovery suites under the race detector, then the full-cluster kill-and-
# cold-start scenario on the simulated LAN.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Crash|Failover|Takeover|Checkpoint|Promot|Fallback|Recover|Torn' ./...
	$(GO) run ./cmd/locsim restart -chaos-restart-all -quick

ci: build fmt-check tidy-check vet lint short race benchmark-check

clean:
	$(GO) clean ./...
	rm -f locnode locctl locsim
