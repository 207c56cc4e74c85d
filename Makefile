GO ?= go
GOLANGCI ?= golangci-lint
# Fuzz budget per target for `make fuzz`.
FUZZTIME ?= 30s

.PHONY: all build test short race vet lint fmt-check tidy-check benchmark-check fuzz chaos ci clean

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
