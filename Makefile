GO ?= go
GOLANGCI ?= golangci-lint
# Fuzz budget per target for `make fuzz`.
FUZZTIME ?= 30s

.PHONY: all build test short race vet lint fmt-check tidy-check benchmark-check fuzz chaos budgets ci clean loc

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

# Short fuzzing sweep over every codec, table, cache, split and recovery fuzz
# target; CI's fuzz workflow runs the same list on a schedule. Committed
# corpora live in each package's testdata/fuzz.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzMsgHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hashtree -run '^$$' -fuzz FuzzDeserialize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hashtree -run '^$$' -fuzz FuzzSplitSequence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/loctable -run '^$$' -fuzz FuzzDeserialize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/loctable -run '^$$' -fuzz FuzzDenseOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzHotMsgDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCheckpointReqDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzHandoffReqDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLocateBatchFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzUpdateBatchFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLocCacheOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLeafSectionDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzStateDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz FuzzRecover -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capindex -run '^$$' -fuzz FuzzApply -fuzztime $(FUZZTIME)

# Crash-tolerance soak: the failover, chaos, fault-injection and restart-
# recovery suites, the leaf-state model, the mail-across-rehash tests and the
# client's §4.3 loop conformance under the race detector; the transport tests
# whose outcome must not hang on scheduling (write coalescing, exact counters,
# uncorrelated requests, a refused old frame, one envelope per agent call) and
# the reply-path tests (a reply riding its request's connection, never dialed
# for, sent to a peer without a directory entry, queued while its connection
# takes nothing, and a late reply missing a recycled call slot: a reply crosses
# from a mailbox goroutine onto a connection it did not route to, and a lost
# wake-up or a recycled slot hearing a late reply shows here),
# the call-group tests (landing order, a settled leg, a stalled leg, an answer
# past the deadline, nothing left registered), the fan-out tests (legs
# posted from the caller, a stalled leaf costing one deadline, discovery
# answers surviving concurrent traffic, a kept batch map and discovery result
# outliving two hundred later calls, the HAgent's stalled pushes costing
# one deadline), the pooled-call test (one client's mixed operations
# across a flapping partition, checked against the writers' model), the
# LHAgent read tests (concurrent reads across adopts and refreshes, one fetch
# for many readers, a waiter keeping its own deadline) and the queued-request
# tests (updates queued in a busy leaf's mailbox answered at its stop, two
# pipelined updates each recorded under its own id) and the update batcher's
# tests (a sender per destination: one batch per tick, a stalled leaf holding
# up no other, Close bounded, a cancelled update's ack never another's)
# twenty times on one P,
# the LHAgent ones under the race detector too; the platform's same-node call
# tests (an answer crossing from the mailbox goroutine into the caller's call
# slot: a lost wake-up or a recycled slot hearing a late reply shows here), its
# crash and close tests and its mailbox closure tests (a closure never beside a
# request, answered at a stop, given up at its deadline), twenty times on one P; then the full-cluster
# kill-and-cold-start scenario on the simulated LAN.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Crash|Failover|Takeover|Checkpoint|Promot|Fallback|Recover|Torn|LeafState|Deposit|ClientLoopConformance|MailStaleAnswers|LHAgent' ./...
	GOMAXPROCS=1 $(GO) test -count=20 -run 'Coalesces|CountWhatTheyName|WithoutCorr|OldFrameVersion|OneEnvelope|ReplyRides|ReplyIsNeverDialed|LearnedRoute|InlineServedWhileReplies|LateReply' ./internal/transport
	GOMAXPROCS=1 $(GO) test -count=20 -run 'FanOuts|FanOutAnswers|DiscoverAnswersSurvive|PooledCallsSurvive|LHAgent|QueuedUpdates|PipelinedUpdates|Batcher' ./internal/core
	GOMAXPROCS=1 $(GO) test -count=20 -run 'Reap' ./internal/transport
	GOMAXPROCS=1 $(GO) test -count=20 -run 'HAgentStalledPushes' ./internal/core
	GOMAXPROCS=1 $(GO) test -count=20 -run 'LocalCall|CallAgentLocal|CallLocalAgent|Crash|NodeClose|MailboxDo' ./internal/platform
	$(GO) run ./cmd/locsim restart -chaos-restart-all -quick

# Every allocation and heap budget with -v: each test logs what it measured,
# so a change that moves one quotes the numbers from this one command. The
# location table's load band rides along, since the heap budgets rest on it.
budgets:
	$(GO) test -count=1 -v -run 'AllocBudget|HeapPerAgent|TableIsNotScanned|StripeLoadBand' ./internal/...

ci: build fmt-check tidy-check vet lint short race benchmark-check

# Non-test Go lines per package directory, then the total — the counts a
# simplicity claim quotes. PKG=internal/core lists that directory per file.
loc:
	@find $(or $(PKG),.) $(if $(PKG),-maxdepth 1) -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { k = $$2; if ("$(PKG)" == "") sub(/\/[^\/]*$$/, "", k); n[k] += $$1; t += $$1 } \
		END { for (k in n) printf "%7d %s\n", n[k], k | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

clean:
	$(GO) clean ./...
	rm -f locnode locctl locsim
