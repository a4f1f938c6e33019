# Tier-1 verification in one command: vet, lint, build, race-enabled tests.
GO ?= go

.PHONY: all check build test bench bench-smoke lint fuzz-smoke faulttest servertest writetest

all: check

check: lint writetest
	$(GO) build ./...
	$(GO) test -race ./...

# writetest runs the write path's oracles under the race detector: the
# history checker (random multi-session histories against a sequential
# model, on every storage scheme; each history's seed is logged and
# printed with any failure, -history.seed=N replays it) and the
# storage sharing tests (segment identity after Clone, concurrent
# clones and readers, per-segment zone maps, the bulk-write face).
writetest:
	$(GO) test -race -run 'TestHistory' ./sciql/
	$(GO) test -race -run 'TestCloneSharesUntouchedSegments|TestConcurrentClonesAndReaders|TestSegmentZoneMapsMatchFromScratch|TestBulkWriterMatchesGetAndSet|TestScanChunksMatchScan' ./internal/storage/

# lint runs stock go vet plus the sciql-lint engine-invariant suite
# (catalogaccess, hotloopflush, ctxpoll, lockorder) as a vettool.
# The vettool path must be absolute: go vet execs it from each
# package's directory.
lint:
	$(GO) vet ./...
	$(GO) build -o bin/sciql-lint ./cmd/sciql-lint
	$(GO) vet -vettool=$(CURDIR)/bin/sciql-lint ./...

# faulttest runs the robustness suites under the race detector: the
# fault-injection invariants (every fault point armed as error and
# panic, serial/parallel x vectorized/interpreted), the resource
# governor's public knobs, and the pool's panic containment.
faulttest:
	$(GO) test -race -run 'TestFaultInjectionInvariants|TestScatterFault|TestPanicContainment|TestMemoryBudget|TestStatementTimeout|TestCallerCancelIsNotStatementTimeout|TestAdmission|TestDrain|TestGovernorTelemetrySeries' ./sciql/
	$(GO) test -race ./internal/governor/ ./internal/faultinject/ ./internal/parallel/

# fuzz-smoke gives each fuzz target a short budget; crash artifacts
# land in testdata/fuzz/ and become regression seeds.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLexer -fuzztime=30s -run '^$$' ./internal/sql/lexer/
	$(GO) test -fuzz=FuzzLexerAll -fuzztime=15s -run '^$$' ./internal/sql/lexer/
	$(GO) test -fuzz=FuzzParseRoundTrip -fuzztime=30s -run '^$$' ./internal/sql/parser/
	$(GO) test -fuzz=FuzzParseNoCrash -fuzztime=15s -run '^$$' ./internal/sql/parser/
	$(GO) test -fuzz=FuzzPgwireDecode -fuzztime=30s -run '^$$' ./internal/server/pgwire/

# servertest runs the sciqld network stack under the race detector:
# wire-protocol conformance over real TCP sockets (simple + extended
# flows, transactions, cancellation, admission, disconnects, drain
# shutdown), the HTTP/JSON surface, and the codec unit tests.
servertest:
	$(GO) test -race ./internal/server/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench 'BenchmarkParallel|BenchmarkPreparedVsAdhoc|BenchmarkVectorizedScan|BenchmarkConcurrentReaders|BenchmarkDML|BenchmarkRowsDrain|BenchmarkWireFetch' -benchtime 2x -run '^$$' .

# bench-smoke vets and smoke-tests the benchmark harness. bench/ is a
# Go module of its own (it replaces repro with ../ and imports
# internal/array, storage, bat and plan), so the root `go test ./...`
# never compiles it: this is the target that notices an internal API
# change breaking the benchmark build.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .
