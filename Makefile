GO ?= go
STATICCHECK ?= staticcheck
FUZZTIME ?= 20s

.PHONY: build vet staticcheck test race fuzz docs verify bench bench-json bench-ps bench-priority bench-cluster

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools if it is installed; locally it is
# optional (skipped with a notice), but CI installs it and fails on
# findings.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs a short smoke of every fuzz target (wire-protocol decoders:
# arbitrary bytes may error but must never panic or over-allocate; the fp16
# encoder: bitwise equal to its scalar reference on any input). Go
# accepts one -fuzz target per invocation, so each runs separately for
# $(FUZZTIME). The committed corpora under testdata/fuzz are replayed by
# plain `go test` regardless; this target searches for new inputs.
fuzz:
	$(GO) test ./internal/netps -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netps -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netar -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compress -run '^$$' -fuzz '^FuzzFP16Encode$$' -fuzztime $(FUZZTIME)

# docs validates the documentation set: vet keeps the package docs
# compiling with the code they describe, checklinks fails on any relative
# markdown link or heading anchor whose target moved or was renamed, and
# checkdocs requires a doc comment on every exported symbol of the
# operator-facing packages.
docs: vet
	sh scripts/checklinks.sh
	sh scripts/checkdocs.sh

# verify is the CI gate: everything must build, pass vet + staticcheck,
# pass the full test suite with the race detector on (./... includes the
# live netps/netar transports and the runner's live harness), survive a
# fuzz smoke on every wire decoder, and have intact docs.
verify: build vet staticcheck race fuzz docs

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-json regenerates the committed perf snapshot (BENCH_PR4.json): the
# full quick suite on the parallel sweep engine, plus a serial reference
# pass (-measure-serial) that both measures the parallel speedup and
# verifies the parallel metrics are bitwise-identical to a serial run.
# The snapshot records cores/workers/wall-clock/cache stats, so numbers
# from different machines stay interpretable.
bench-json:
	$(GO) run ./cmd/benchsuite -run all -measure-serial -json BENCH_PR4.json

# bench-priority regenerates the committed priority/pipelining snapshot
# (BENCH_PR9.json): the EXT-PRIORITY shootout — priority policies across
# the sim model zoo, plus cross-iteration pipelining on vs the pass-end
# baseline on both live backends, recorded as experiment metrics
# (ps_pipeline_speedup_pct / ring_pipeline_speedup_pct).
bench-priority:
	$(GO) run ./cmd/benchsuite -run EXT-PRIORITY -json BENCH_PR9.json

# bench-ps regenerates the committed netps server macro-benchmark
# (BENCH_PR6.json): one complete push+pull cycle per op at 64/256/1k
# simulated clients, sharded vs. the single-lock seed shape (one lock
# domain plus the per-push dedup-table rescan), plus one real-TCP tier
# through the connection multiplexer + handler pool that records the
# server goroutine count — the evidence that 1k clients cost ~pool-size
# goroutines.
bench-ps:
	$(GO) run ./cmd/benchsuite -ps-bench -json BENCH_PR6.json

# bench-cluster regenerates the committed multi-job scheduling snapshot
# (BENCH_PR10.json): EXT-CLUSTER at full scale — 400 heterogeneous jobs,
# millions of tensor transfers — comparing FIFO/uniform admission and
# sharing against fair-share + delay-aware placement, with a serial
# reference pass verifying the parallel run is bitwise-identical.
bench-cluster:
	$(GO) run ./cmd/benchsuite -run EXT-CLUSTER -full -measure-serial -json BENCH_PR10.json
