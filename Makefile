# Developer entry points. CI runs the same targets; see
# docs/STATIC_ANALYSIS.md for what the linters enforce.

GO ?= go
BIN := bin

.PHONY: all build test race lint lint-gofmt lint-reprolint tracecheck bench-identical fuzz clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs everything CI's lint job runs. staticcheck and govulncheck are
# skipped with a note when not installed (they need network to install; the
# project analyzers in cmd/reprolint always run).
lint: lint-gofmt lint-reprolint
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "govulncheck not installed; skipping"

# lint-gofmt fails when a Go file outside testdata (analyzer fixtures keep
# their layout) is not gofmt-formatted, and names it.
lint-gofmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/)); \
		test -z "$$unformatted" || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }

# lint-reprolint builds the project's own analyzer suite and runs it over
# every package via the go vet driver. Set REPROLINT_FINDINGS=<path> to
# append every finding (including suppressed-with-reason ones) as JSONL —
# use a fresh GOCACHE for a complete log, since vet skips cached-clean
# packages (CI's lint job does both).
lint-reprolint:
	$(GO) build -o $(BIN)/reprolint ./cmd/reprolint
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/reprolint ./...

# tracecheck runs a seeded simulated workload per protocol with span
# tracing on and pipes the export through the offline invariant checker
# (commit-order agreement, causal precedence, analytical round counts).
# See docs/TRACING.md.
tracecheck:
	$(GO) build -o $(BIN)/simtrace ./cmd/simtrace
	$(GO) build -o $(BIN)/tracecheck ./cmd/tracecheck
	$(BIN)/simtrace -proto reliable -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck
	$(BIN)/simtrace -proto causal -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck
	$(BIN)/simtrace -proto baseline -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck
	$(BIN)/simtrace -proto quorum -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck
	$(BIN)/simtrace -proto atomic -atomic-mode sequencer -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck
	$(BIN)/simtrace -proto atomic -atomic-mode isis -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck
	$(BIN)/simtrace -proto atomic -atomic-mode batch -sites 3 -txns 25 -seed 7 -export - | $(BIN)/tracecheck

# bench-identical is the byte-identity oracle for refactors: two
# `benchrunner -json` documents (A=<json> B=<json>) must not differ once the
# four wall-clock keys are dropped -- the date and E13's two wall-clock
# throughputs and their ratio, which are reported for orientation and gate
# nothing (E13's gate, records per fsync, is virtual time). Everything else
# runs in virtual time from fixed seeds, so any remaining line is a
# behaviour change.
BENCH_WALLCLOCK := "date"|wall_txn_per_sec|group_commit_speedup
bench-identical: SHELL := bash
bench-identical:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-identical A=<json> B=<json>"; exit 2; }
	diff <(grep -Ev '$(BENCH_WALLCLOCK)' $(A)) <(grep -Ev '$(BENCH_WALLCLOCK)' $(B))

# fuzz mirrors CI's fuzz sweeps: 30s per fuzz target of the packages that
# decode bytes they did not write (WAL files, checkpoint files, the TCP wire).
fuzz:
	@for pkg in ./internal/storage/ ./internal/checkpoint/ ./internal/message/; do \
		for target in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "=== $$pkg $$target"; \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime=30s $$pkg || exit 1; \
		done; \
	done

clean:
	rm -rf $(BIN)
