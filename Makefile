GO ?= go

# Flags for the bench-json smoke run: scaled down to 100-row tables and a
# 5 s time limit, so a run takes about two minutes (117 s on a 2-CPU VM,
# most of it the baseline cells that reach the time limit), and written to
# .bench_json/ so the committed reference artifacts in the repo root stay
# untouched; override BENCH_JSON_FLAGS for a full-scale artifact run.
BENCH_JSON_FLAGS ?= -exp table1,ranked,incremental -inprocess -timeout 5s -table1-rows 100 -json-dir .bench_json

.PHONY: all build vet lint lint-json test test-invariants race check bench bench-json bench-unit fuzz-smoke fuzz-smoke-ranked fuzz-smoke-incremental fuzz-smoke-validator fuzz-smoke-inductor fuzz-smoke-sampler fuzz-smoke-csv fuzz-smoke-lattice serve-smoke loc

# Wall-clock budget of the bounded differential-fuzz smoke run.
FUZZTIME ?= 30s

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet, a gofmt check that fails on any file gofmt would
# rewrite, an architecture check that fails when the engine (internal/core
# and everything it imports: sampler, validator, guardian, inductor, fdtree)
# depends on internal/metrics, since the engine reports only through trace
# events, and hyfdvet, the project's own static-analysis suite
# (determinism, ctxflow, hooksafe, goroutine, bitsetalias, plus the
# interprocedural tier: lockcheck, leakcheck, statusmap); any unsuppressed
# finding fails the build, and -strict-allows additionally fails on
# //hyfdvet:allow comments that no longer suppress anything.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@deps=$$($(GO) list -deps ./internal/core) || exit 1; \
	if echo "$$deps" | grep -qx 'hyfd/internal/metrics'; then \
		echo "internal/core depends on hyfd/internal/metrics; the engine must report only through trace events"; exit 1; fi
	$(GO) run ./cmd/hyfdvet -strict-allows ./...

# lint-json emits the same findings as one machine-readable document (CI
# uploads it as an artifact).
lint-json:
	$(GO) run ./cmd/hyfdvet -strict-allows -json ./... > hyfdvet.json; \
	status=$$?; cat hyfdvet.json; exit $$status

test:
	$(GO) test ./...

# test-invariants re-runs the suite with the runtime assertion layer armed
# (internal/invariant): fdtree, pli, and validator self-check their
# structural contracts, the FDTree along every mutated path and as a whole
# after every induction batch and validation level.
test-invariants:
	$(GO) test -tags hyfdinvariants ./...

race:
	$(GO) test -race ./...

# check is the repository's gate: everything must compile, pass vet and
# hyfdvet, and pass the full test suite both under the race detector and
# with runtime invariants armed.
check: build lint race test-invariants

# bench runs every Go benchmark of the root module once, so a benchmark
# that fails at run time (an index panic after a layout change) fails here.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-unit vets and tests the benchmark module (perfbench/), a Go module
# of its own that the root module's ./... patterns do not reach.
bench-unit:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-json runs the benchmark suite and archives each experiment as a
# machine-readable BENCH_<exp>.json artifact in .bench_json/ (the default
# flags) or in the -json-dir of overriding flags (the repo root if none).
bench-json:
	mkdir -p .bench_json
	$(GO) run ./cmd/bench $(BENCH_JSON_FLAGS)

# fuzz-smoke runs the differential fuzzer (hyfd.Run vs the brute-force
# reference) for a bounded time on top of the committed corpus.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDiscoverDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# fuzz-smoke-ranked runs the ranked top-k differential fuzzer: the engine's
# early-terminated ranking must equal the brute-force cover rescored
# offline, at several k, both null semantics, and two thread counts.
fuzz-smoke-ranked:
	$(GO) test -fuzz=FuzzTopKDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# fuzz-smoke-incremental runs the incremental maintenance differential
# fuzzer: a fuzzed update batch applied through ModeIncremental must yield
# a cover byte-identical to a cold re-run over the delta'd content, under
# both null semantics and two thread counts.
fuzz-smoke-incremental:
	$(GO) test -fuzz=FuzzIncrementalDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# fuzz-smoke-validator runs the two Phase 2 differential fuzzers, each for
# FUZZTIME: the validator, started from the agree sets of a fuzzed subset of
# record pairs and run to completion, must leave exactly the brute-force
# cover (root package), and its prefix-partition check must report, run by
# run and level by level, what the direct check of every node reports
# (internal/validator); both under both null semantics and two thread
# counts.
fuzz-smoke-validator:
	$(GO) test -fuzz=FuzzValidatorDifferential -fuzztime=$(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz=FuzzValidatorStack -fuzztime=$(FUZZTIME) -run '^$$' ./internal/validator

# fuzz-smoke-inductor runs the induction differential fuzzer, then the
# FDTree's, each for FUZZTIME: Update, which walks the FDTree once per agree
# set, must leave the same FDs and node count as a per-RHS reference, over
# fuzzed universes (up to 72 attributes), agree-set batches and LHS bounds,
# and match the brute-force cover on small unbounded universes
# (internal/inductor); and fuzzed sequences of tree operations must keep
# the FDs, their canonical order and the node count of a naive model
# (internal/fdtree).
fuzz-smoke-inductor:
	$(GO) test -fuzz=FuzzInductorDifferential -fuzztime=$(FUZZTIME) -run '^$$' ./internal/inductor
	$(GO) test -fuzz=FuzzTreeDifferential -fuzztime=$(FUZZTIME) -run '^$$' ./internal/fdtree

# fuzz-smoke-sampler runs the sampler differential fuzzer: on fuzzed
# relations (up to 8 columns and 255 rows, nulls under both semantics) every
# counting-sorted cluster must equal the comparison-sort reference, and two
# sampling rounds at 1, 2 and 3 threads, with and without the repeat skip,
# must return the same observations in the same order with the same
# comparison, window and all-pairs counts as the sequential sampler with
# the skip off, which looks every agree set up.
fuzz-smoke-sampler:
	$(GO) test -fuzz=FuzzSamplerDifferential -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sampler

# fuzz-smoke-csv runs the CSV reader fuzzer: on fuzzed inputs and
# separators, the chunked reader at 1 and 3 threads, with full-size chunks
# and with chunks of a fuzzed 1 to 64 bytes, must return the same relation
# or the same error as the sequential encoding/csv reference.
fuzz-smoke-csv:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) -run '^$$' ./internal/relation

# fuzz-smoke-lattice runs the lattice differential fuzzer: on fuzzed
# relations (up to 8 columns and 64 rows, nulls under both semantics, LHS
# bounds 0-3, a few g3 thresholds) every partition refinement must equal
# direct grouping, and ucc and afd mode must equal brute-force enumeration,
# g3 values included.
fuzz-smoke-lattice:
	$(GO) test -fuzz=FuzzLatticeDifferential -fuzztime=$(FUZZTIME) -run '^$$' .

# serve-smoke is the end-to-end daemon exercise: build hyfdd, start it,
# register a CSV, run one job per mode (fd/afd/ucc/ranked), POST a delta
# and verify the next job pins the new snapshot version with a result
# matching a cold run over the delta'd content, compare warm FD results
# byte-for-byte against cold cmd/hyfd runs, scrape /metrics, and assert a
# clean SIGTERM shutdown.
serve-smoke:
	$(GO) test ./cmd/hyfdd -run 'TestServeSmoke|TestUsageErrors' -count=1 -v

# loc prints the repository's two size figures: the lines of the
# git-tracked non-test .go files outside perfbench/ and every testdata/
# directory, and the //hyfdvet:allow lines in those files, tests included.
loc:
	@files=$$(git ls-files '*.go' | grep -v -e '^perfbench/' -e '\(^\|/\)testdata/'); \
	echo "non-test Go lines: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "//hyfdvet:allow lines: $$(echo "$$files" | xargs grep -h '//hyfdvet:allow' | wc -l)"
